"""Brute-force reference implementations used to cross-check the library.

Everything here works on plain ``{position: value}`` dicts and exhaustive
iteration over exponent codes, deliberately sharing no representation or
shortcuts with the package under test.
"""

import itertools


def to_dict(block):
    """Library block -> sparse dict."""
    return {pos: val for pos, val in block.items()}


def tetris_dict(d, steps=1):
    return {pos: val - steps for pos, val in d.items() if val > steps}


def add_dicts(parts):
    total = {}
    for part in parts:
        for pos, val in part.items():
            if pos in total:
                return None
            total[pos] = val
    return total


def star_dicts(a, b):
    out = dict(a)
    for pos, val in b.items():
        out[pos] = max(out.get(pos, 0), val)
    return out


def peak_dict(d, k):
    tops = [pos for pos, val in d.items() if val == k]
    return max(tops) if tops else None


def as_key(d):
    return tuple(sorted(d.items()))


def span_witnesses(generators, k, starred):
    """Map every span element to the list of witnesses producing it.

    ``generators`` is a list of sparse dicts.  Each witness is a tuple of
    (generator index, exponent) pairs with strictly increasing indices; a
    code of 0 means the generator is unused, code c>0 means exponent c-1.
    The empty combination is excluded here even for starred spans.
    """
    table = {}
    for codes in itertools.product(range(k + 1), repeat=len(generators)):
        terms = tuple((i, c - 1) for i, c in enumerate(codes) if c)
        if not terms:
            continue
        if not starred and min(e for _, e in terms) != 0:
            continue
        total = add_dicts([tetris_dict(generators[i], e) for i, e in terms])
        if total is None:
            continue
        table.setdefault(as_key(total), []).append(terms)
    return table


def span_elements(generators, k, starred):
    return set(span_witnesses(generators, k, starred))


def intersection_elements(gens_a, gens_b, k):
    return span_elements(gens_a, k, False) & span_elements(gens_b, k, False)


def valuation_value(dicts, k):
    tops = [peak_dict(d, k) for d in dicts]
    tops = [t for t in tops if t is not None]
    return max(tops) if tops else None


def member_witnesses(d, generators, k):
    """Every witness of the sparse dict ``d`` in the unstarred span.

    Supports are disjoint, so each generator's k+1 codes are tried on its
    own support; the witnesses are the products of the codes that match.
    """
    covered = set()
    codes = []
    for gen in generators:
        covered |= gen.keys()
        here = {pos: d[pos] for pos in gen if pos in d}
        fits = [] if here else [0]
        fits += [c for c in range(1, k + 1) if tetris_dict(gen, c - 1) == here]
        codes.append(fits)
    if not d or any(pos not in covered for pos in d):
        return []
    witnesses = []
    for choice in itertools.product(*codes):
        terms = tuple((i, c - 1) for i, c in enumerate(choice) if c)
        if terms and min(e for _, e in terms) == 0:
            witnesses.append(terms)
    return witnesses


def iter_common(gens_a, gens_b, k):
    """The enumerate-then-filter reference for every two-span question.

    Yields ``(element key, witness over a, witness over b)`` for each common
    element: a's whole span is enumerated, then each element is matched
    against b's generators.  Pass the side with fewer generators as ``a``.
    """
    for key, witnesses_a in span_witnesses(gens_a, k, False).items():
        for terms_b in member_witnesses(dict(key), gens_b, k):
            for terms_a in witnesses_a:
                yield key, terms_a, terms_b


def value_vector(d):
    """The dense value vector of a sparse dict, without trailing zeros."""
    values = [0] * (max(d) + 1 if d else 0)
    for pos, val in d.items():
        values[pos] = val
    return tuple(values)
