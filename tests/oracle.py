"""Brute-force reference implementations used to cross-check the library.

Everything here works on plain ``{position: value}`` dicts and exhaustive
iteration over exponent codes, deliberately sharing no representation or
shortcuts with the package under test.  The one exception is the
position sweep's step producer at the end, kept as the reference its
faster replacement is checked against: it reads the package's blocks and
interns its steps in the package's move table.
"""

import itertools
import math
from bisect import bisect_left, bisect_right
from operator import attrgetter


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


def decomposition_graph(gens_a, gens_b, terms_a, terms_b):
    """The decomposition graph of a block with witness terms over a and b,
    as (a's indices, b's indices, sorted edges): every a image's support
    is intersected with every b image's, and each pair that meets is an
    edge."""
    images_a = [(i, set(tetris_dict(gens_a[i], e))) for i, e in terms_a]
    images_b = [(j, set(tetris_dict(gens_b[j], e))) for j, e in terms_b]
    edges = sorted((i, j) for i, a in images_a for j, b in images_b if a & b)
    return tuple(i for i, _ in images_a), tuple(j for j, _ in images_b), tuple(edges)


def value_vector(d):
    """The dense value vector of a sparse dict, without trailing zeros."""
    values = [0] * (max(d) + 1 if d else 0)
    for pos, val in d.items():
        values[pos] = val
    return tuple(values)


# The position sweep's step producer as it was before its index walk:
# two support generators, windows skipped by ``send(True)`` and bisections
# keyed by block properties.  It is the reference for ``fink.sweep``'s
# ``_sweep_steps``, which must yield the same steps in the same order.

_BY_MAX_SUPPORT = attrgetter("max_support")
_BY_MIN_SUPPORT = attrgetter("min_support")
_NO_PAIR = (math.inf, None, None)  # a used-up support walk


def _reaching(blocks, stop, lo):
    """The least index from which every window of ``blocks[:stop]`` reaches
    ``lo``."""
    first = stop
    while first and blocks[first - 1].pairs[-1][0] >= lo:
        first -= 1
    return first


def _support(blocks, first, stop):
    """Per support position of ``blocks[first:stop]``, ascending, ``(pos,
    generator, value)``, then ``_NO_PAIR`` for ever.  Sending a true value
    skips the rest of the current generator's window and returns the next
    generator's first position."""
    for g in range(first, stop):
        for pos, v in blocks[g].pairs:
            if (yield pos, g, v):
                break
    while True:
        yield _NO_PAIR


def sweep_steps(left, right, force, walked, joins):
    """Per position a sweep walks, ``(pos, left generator opened, steps id
    in ``joins``, right generator opened)``: the positions inside the hull
    of the left generators, widened to every right window it cuts, past
    ``walked`` when resumed, less every window that holds no support
    position of the other side (a left one only when ``force`` does not
    fix its generator's choice)."""
    blocks, others = left.blocks, right.blocks
    pair = joins.pair
    lstop = len(blocks)
    if not lstop:
        return
    hi = blocks[-1].pairs[-1][0]
    rstop = bisect_right(others, hi, key=_BY_MIN_SUPPORT)
    if walked is None:
        lo = blocks[0].pairs[0][0]
        rfirst = bisect_left(others, lo, 0, rstop, key=_BY_MAX_SUPPORT)
    else:
        lo = walked + 1
        rfirst = _reaching(others, rstop, lo)
    if rfirst < rstop:
        hi = max(hi, others[rstop - 1].pairs[-1][0])
        if walked is None:
            lo = min(lo, others[rfirst].pairs[0][0])
    lfirst = _reaching(blocks, lstop if walked is not None else 0, lo)
    lopen = ropen = lopened = ropened = None
    lend = rend = -1
    if walked is not None and lfirst < lstop and blocks[lfirst].min_support < lo:
        lopen, lend = lfirst, blocks[lfirst].pairs[-1][0]
    if rfirst < rstop and others[rfirst].min_support < lo:
        ropen, rend = rfirst, others[rfirst].pairs[-1][0]
    lsupport = _support(blocks, lfirst, lstop)
    rsupport = _support(others, rfirst, rstop)
    la, lg, lv = next(lsupport)
    while la < lo:
        la, lg, lv = next(lsupport)
    ra, rg, rv = next(rsupport)
    while ra < lo:
        ra, rg, rv = next(rsupport)
    while True:
        pos = la if la < ra else ra
        if pos > hi:
            return
        if la != pos:
            lstep = 0 if pos < lend else None
        elif lg == lopen:
            lstep = lv
        else:
            end = blocks[lg].pairs[-1][0]
            forced = force.get(lg)
            if ra > end and forced is None:
                la, lg, lv = lsupport.send(True)
                continue
            lopen, lend, lopened = lg, end, lg
            lstep = lv, forced
        if ra != pos:
            rstep = 0 if pos < rend else None
        elif rg == ropen:
            rstep = rv
        else:
            end = others[rg].pairs[-1][0]
            if la > end:
                ra, rg, rv = rsupport.send(True)
                continue
            ropen, rend, ropened = rg, end, rg
            rstep = rv, None
        if la == pos:
            la, lg, lv = next(lsupport)
        if ra == pos:
            ra, rg, rv = next(rsupport)
        yield pos, lopened, pair((lstep, rstep)), ropened
        lopened = ropened = None
