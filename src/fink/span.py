"""Finite block sequences and exact span computations.

The span of a finite block sequence P = (p_0, ..., p_{N-1}) is the set of
sums ``T^{j_0}(p_{n_0}) + ... + T^{j_m}(p_{n_m})`` over strictly increasing
index tuples, with exponents in {0, ..., k-1} and minimal exponent 0.  The
starred span drops the minimality constraint (equivalently: it is closed
under further tetris moves) and additionally contains the empty subblock.

Everything here is exact and deterministic.  Enumeration walks index
subsets depth first and lazily, so elements come out in witness order with
no sort, and an unstarred listing steps only through exponent vectors it
lists.  Membership is decided directly from the forced exponents.  A
question about two spans at once is one forward pass over their support
positions that folds every answer, least elements keyed by one symbol per
left generator opened.  Its moves come from one table per level, which
joins both sides' choices on value and holds only the entries sweeps have
met; it interns states and each position's pair of steps as small ints, so
a state's moves are two list indexings away.  A pass resumed from an
earlier one over a prefix of the left sequence shares that pass's kept
layer instead of copying it, since a pass writes only the layer it builds.
The pass skips whole every generator window
``[min_support, max_support]`` that holds no support position of the
other side: used at exponent e < k, the generator keeps the value
k - e >= 1 at its peak, where the other side's value is 0, so it can only
be unused.  Its cost is polynomial in the positions where both sides'
windows meet, plus one step per window skipped.  Every positive
answer carries a witness combination that evaluates back to the queried
subblock.  Evaluation appends each term's lowered pairs to one list.  A
combination whose terms the library made itself is built unchecked, while
one read from a caller or from text is checked; either way a positive
answer's witness is evaluated again and compared with the answer (a
membership answer compares the pairs alone, since its levels were checked
on entry).  The records made once per element run no Python frame of
their own: ``_span_walk`` builds each listed element and its witness,
``membership_witness`` its witness and ``evaluate`` its subblock, each
allocated with ``object.__new__`` and filled through the slot setters.
"""

import itertools
import math
from bisect import bisect_left, bisect_right
from operator import attrgetter

from .blocks import (
    Record,
    Subblock,
    _set_k,
    _set_pairs,
    _setattr,
    add,
    parse_int,
    peak,
    tetris,
)
from .errors import (
    EnumerationCapExceeded,
    HorizonExhausted,
    IndexOutOfRange,
    InvalidCombination,
    InvalidSequence,
    MismatchedLevel,
    ParseError,
    WitnessMismatch,
)

__all__ = [
    "DEFAULT_CAP_BITS",
    "BlockSequence",
    "Combination",
    "HorizonValuation",
    "SpanEnumeration",
    "CommonElement",
    "evaluate",
    "enumerate_span",
    "membership_witness",
    "intersect_spans",
    "first_common_element",
    "valuation",
]

# Default cap on a listing: at most 2^24 listed items.
DEFAULT_CAP_BITS = 24.0

# a position sweep's choice for a generator it does not use
_UNUSED = -1

# allocates an instance whose slots the caller fills through their setters
_new = object.__new__

# bisection keys over a sequence's blocks
_BY_MAX_SUPPORT = attrgetter("max_support")
_BY_MIN_SUPPORT = attrgetter("min_support")
_PAIRS = attrgetter("pairs")


class BlockSequence:
    """An ordered finite sequence of blocks with strictly increasing supports."""

    def __init__(self, k, blocks):
        blocks = tuple(blocks)
        for b in blocks:
            if b.k != k:
                raise MismatchedLevel(f"sequence level {k}, block {b.render()}")
            if not b.is_block:
                raise InvalidSequence(f"not a block: {b.render()}")
        for left, right in zip(blocks, blocks[1:]):
            if left.max_support >= right.min_support:
                raise InvalidSequence(
                    f"supports out of order: {left.render_body()} !< {right.render_body()}"
                )
        self.k = k
        self.blocks = blocks

    @classmethod
    def _trusted(cls, k, blocks):
        """A sequence built without checks: ``blocks`` must already be a
        tuple of level-k blocks with strictly increasing supports."""
        seq = object.__new__(cls)
        seq.k = k
        seq.blocks = blocks
        return seq

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, index):
        return self.blocks[index]

    def __iter__(self):
        return iter(self.blocks)

    def __eq__(self, other):
        if not isinstance(other, BlockSequence):
            return NotImplemented
        return self.k == other.k and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.k, self.blocks))

    def __repr__(self):
        return f"BlockSequence(k={self.k}, n={len(self.blocks)})"

    def prefix(self, n):
        """The first n blocks as a sequence (no revalidation needed)."""
        return BlockSequence._trusted(self.k, self.blocks[:n])

    def appended(self, block):
        """This sequence with ``block`` appended, checking only the join:
        the block's level, that it is a block, and that it lies after the
        last one."""
        BlockSequence(self.k, self.blocks[-1:] + (block,))
        return BlockSequence._trusted(self.k, self.blocks + (block,))

    @classmethod
    def parse_file(cls, text):
        """Parse the sequence file format: a ``k=<K>`` header line, then one
        block body per line.  Blank lines and ``#`` comments are skipped."""
        return cls(*parse_block_lines(text))


class Combination(Record):
    """A formal sum ``sum_l T^{j_l}(p_{n_l})`` over a block sequence.

    ``terms`` is a tuple of (generator index, tetris exponent) pairs with
    strictly increasing indices, and ``starred`` is a bool.  Unstarred
    combinations are nonempty and have minimal exponent 0, so they always
    evaluate to a block; the empty starred combination stands for the
    empty subblock (the image of any span element under T^k).
    """

    __slots__ = ("terms", "starred")

    def __init__(self, terms, starred=False):
        _setattr(self, "terms", terms)
        _setattr(self, "starred", starred)
        last = least = -1
        for term in terms:
            index, exponent = term
            if index <= last:
                raise InvalidCombination(f"indices must strictly increase at {term}")
            if exponent < 0:
                raise InvalidCombination(f"negative exponent at {term}")
            last = index
            if least < 0 or exponent < least:
                least = exponent
        if not starred:
            if not terms:
                raise InvalidCombination("an unstarred combination needs at least one term")
            if least != 0:
                raise InvalidCombination("an unstarred combination needs minimal exponent 0")

    @classmethod
    def _trusted(cls, terms, starred=False):
        """A combination built without checks, through the slot descriptors.

        ``terms`` must be a tuple of (index, exponent) pairs with strictly
        increasing indices and nonnegative exponents, nonempty with an
        exponent 0 unless ``starred``.  Its caller, ``_Sweep._element``,
        builds the terms from a sweep's accepting paths, which see exponent
        0 on both sides.  The per-element builders fill the same slots
        inline, with no call: ``_span_walk`` from its walk's subsets and
        exponent vectors, and ``membership_witness`` from the runs it
        decided (and then evaluates the witness again and compares the
        pairs it gives).
        """
        self = object.__new__(cls)
        _set_terms(self, terms)
        _set_starred(self, starred)
        return self

    @property
    def indices(self):
        return tuple(i for i, _ in self.terms)

    @property
    def exponents(self):
        return tuple(e for _, e in self.terms)

    def sort_key(self):
        return (self.indices, self.exponents)

    def render(self):
        if not self.terms:
            return "-"
        return " + ".join(f"{i}^{e}" for i, e in self.terms)

    @classmethod
    def parse(cls, text, starred=False):
        """Read ``render``'s form: ``-`` is the empty combination, which
        only a starred one may be."""
        body = text.strip()
        terms = []
        for chunk in body.split("+") if body != "-" else ():
            piece = chunk.strip()
            if "^" not in piece:
                raise ParseError(f"expected <index>^<exponent>, got {piece!r}")
            left, _, right = piece.partition("^")
            try:
                terms.append((parse_int(left), parse_int(right)))
            except ValueError:
                raise ParseError(f"non-integer entry {piece!r}") from None
        try:
            return cls(tuple(terms), starred=starred)
        except InvalidCombination as exc:
            raise ParseError(str(exc)) from None


_set_terms = Combination.terms.__set__
_set_starred = Combination.starred.__set__


class HorizonValuation(Record):
    """The valuation F over a finite set of blocks, tagged with its horizon.

    ``value`` (an int, or None) is the maximum over the set of the
    rightmost position where k is attained, or None (bottom) for the empty
    set.  Bottom deliberately differs from 0: an empty intersection and one
    whose elements attain k only at position 0 are different findings.
    ``horizon`` (an int) bounds the positions looked at, and
    ``element_count`` (an int) is the size of the set.
    """

    __slots__ = ("value", "horizon", "element_count")

    def __init__(self, value, horizon, element_count):
        _setattr(self, "value", value)
        _setattr(self, "horizon", horizon)
        _setattr(self, "element_count", element_count)
        if (value is None) != (element_count == 0):
            raise ValueError("value is bottom exactly for the empty set")
        if value is not None and value > horizon:
            raise ValueError(f"valuation {value} exceeds horizon {horizon}")

    def render_value(self):
        return "bottom" if self.value is None else str(self.value)

    def render(self):
        return f"F={self.render_value()} count={self.element_count} horizon={self.horizon}"


class SpanEnumeration(Record):
    """All span elements with their witnesses, canonically ordered.

    ``elements`` is a tuple of (Subblock, Combination) pairs.  The empty
    subblock is never listed among them; it is a member of every starred
    span (the empty sum) and ``includes_empty`` (a bool) records that.
    """

    __slots__ = ("elements", "includes_empty")

    def __init__(self, elements, includes_empty):
        _setattr(self, "elements", elements)
        _setattr(self, "includes_empty", includes_empty)

    def blocks(self):
        return tuple(block for block, _ in self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


class CommonElement(Record):
    """A subblock lying in two spans at once, with one witness per side.

    ``block`` is the Subblock; ``left_witness`` and ``right_witness`` are
    its Combinations over the left and the right sequence.
    """

    __slots__ = ("block", "left_witness", "right_witness")

    def __init__(self, block, left_witness, right_witness):
        _setattr(self, "block", block)
        _setattr(self, "left_witness", left_witness)
        _setattr(self, "right_witness", right_witness)


def parse_block_lines(text):
    """The level and the block bodies of a sequence or block-set file.

    The first non-comment line is the ``k=<K>`` header; every later one is
    a block body.  Blocks are returned in file order, with no ordering check.
    """
    k = None
    blocks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if k is None:
            if not line.startswith("k="):
                raise ParseError("expected k=<K> header", line=lineno)
            try:
                k = parse_int(line[2:])
            except ValueError:
                raise ParseError(f"bad level {line!r}", line=lineno) from None
            if k < 1:
                raise ParseError(f"level must be positive, got {k}", line=lineno)
            continue
        try:
            blocks.append(Subblock.parse_body(k, line))
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if k is None:
        raise ParseError("empty file: missing k=<K> header", line=1)
    return k, blocks


def evaluate(seq, comb):
    """Evaluate a combination over a sequence to the subblock it denotes.

    Terms are checked in order, index before exponent, so the first bad
    term is the one named.  A generator whose first position lies after
    the pairs gathered so far (always, over ordered supports) has its
    lowered pairs appended straight onto one result list, with no image
    built; at exponent 0 its stored pairs are appended whole.  Any other
    generator's image is built and, unless it still starts after the
    gathered pairs, merged by ``add``, which reports an overlap.  No cache
    of ``seq`` is read, so ``check_witness`` is an independent recheck.
    """
    k, blocks = seq.k, seq.blocks
    n = len(blocks)
    pairs = []
    append = pairs.append
    for index, exponent in comb.terms:
        if not 0 <= index < n:
            raise IndexOutOfRange(f"index {index} outside 0..{n - 1}")
        if exponent >= k:
            raise InvalidCombination(f"exponent {exponent} not below level {k}")
        stored = blocks[index].pairs
        if pairs and stored[0][0] <= pairs[-1][0]:
            image = stored
            if exponent:
                image = [(pos, v - exponent) for pos, v in stored if v > exponent]
            if image and image[0][0] <= pairs[-1][0]:
                total = add(Subblock._raw(k, tuple(pairs)), Subblock._raw(k, tuple(image)))
                pairs[:] = total.pairs
            else:
                pairs += image
        elif exponent:
            for pos, v in stored:
                if v > exponent:
                    append((pos, v - exponent))
        else:
            pairs += stored
    result = _new(Subblock)
    _set_k(result, k)
    _set_pairs(result, tuple(pairs))
    return result


def check_witness(seq, witness, block):
    """Re-evaluate a witness; raise WitnessMismatch unless it produces ``block``."""
    if evaluate(seq, witness) != block:
        raise _mismatch(witness, block)


def _mismatch(witness, block):
    return WitnessMismatch(f"witness {witness.render()} does not produce {block.render()}")


def _check_listing(count, noun, cap_bits):
    """Refuse to list more than 2^cap_bits items, judged on their exact
    count; a cap that is not a number refuses every nonempty listing."""
    if count and not math.log2(count) <= cap_bits:
        shown = count if count < 2**64 else "over 2^64"
        raise EnumerationCapExceeded(
            f"{shown} {noun} need {math.log2(count):.1f} bits, cap is {cap_bits}"
        )


def _span_walk(seq, starred):
    """Yield every nonempty span element as a (Subblock, Combination)
    record, in witness order.

    Index subsets come in lexicographic order from a depth-first walk that
    keeps only the current subset.  Its head (all but the last generator)
    takes its exponent vectors in lexicographic order from one
    ``itertools.product`` per column kind (exponents, terms, images); the
    last generator takes every exponent when starred or when the head holds
    a 0, else 0 alone.  That is the order of ``Combination.sort_key``, and
    every vector stepped through is listed.  Supports are ordered, so the
    used generators' images concatenate to the element's pairs.  Each
    record is built where its element is found, its slots filled through
    their setters, so no (pairs, terms) row is kept beside it.
    """
    n, k = len(seq), seq.k
    blocks, rows = seq.blocks, [None] * len(seq)
    exponents = range(k)
    product, chain = itertools.product, itertools.chain.from_iterable
    head_terms, head_images = [], []
    # one iterator per depth over the indices that may come next
    stack = [iter(range(n))]
    while stack:
        i = next(stack[-1], None)
        if i is None:
            stack.pop()
            if head_terms:
                head_terms.pop()
                head_images.pop()
            continue
        if rows[i] is None and (starred or head_terms or i + 1 < n):
            # its terms (as 1-tuples, appended by concatenation) and images
            # at every exponent: listed when starred, after a nonempty head
            # (whose first vector is all 0) or as a head
            rows[i] = tuple(zip(*((((i, e),), tetris(blocks[i], e).pairs) for e in exponents)))
        only_zero = (((i, 0),),), (blocks[i].pairs,)
        for exps, terms, parts in zip(
            product(exponents, repeat=len(head_terms)),
            product(*head_terms),
            product(*head_images),
        ):
            head = tuple(chain(parts))
            for term, image in zip(*(rows[i] if starred or 0 in exps else only_zero)):
                block = _new(Subblock)
                _set_k(block, k)
                _set_pairs(block, head + image)
                witness = _new(Combination)
                _set_terms(witness, terms + term)
                _set_starred(witness, starred)
                yield block, witness
        if i + 1 < n:
            # the head's products take the row's terms unwrapped
            head_terms.append(tuple(chain(rows[i][0])))
            head_images.append(rows[i][1])
            stack.append(iter(range(i + 1, n)))


def _checked_span(seq, starred, cap_bits):
    """The span's (Subblock, Combination) records in witness order, as a
    lazy iterator; the listing's size is checked against the cap first, so a
    refusal comes before any element."""
    k, n = seq.k, len(seq)
    # both counts are at least (k+1)^(N-1); past 2^64 that bound refuses
    # before the exact count, an integer of N*log2(k+1) bits, is built
    bound = (n - 1) * math.log2(k + 1)
    if bound > 64 and bound > cap_bits:
        raise EnumerationCapExceeded(
            f"over 2^64 combinations need at least {bound:.1f} bits, cap is {cap_bits}"
        )
    # each generator unused or at one of k exponents, less the k^N choices
    # with no exponent 0, or less the empty one when starred
    _check_listing((k + 1) ** n - (1 if starred else k**n), "combinations", cap_bits)
    return _span_walk(seq, starred)


def enumerate_span(seq, starred=False, cap_bits=DEFAULT_CAP_BITS):
    """The whole (starred) span with one witness per element, in witness
    order: by index tuple, then by exponents, as ``Combination.sort_key``.

    Elements come from one depth-first walk over index subsets that yields
    them already in that order, so nothing is sorted.  A listing of more
    than 2^cap_bits combinations is refused before the walk starts.
    """
    return SpanEnumeration(tuple(_checked_span(seq, starred, cap_bits)), includes_empty=starred)


def membership_witness(t, seq, starred=False):
    """Decide span membership; returns the unique witness or None.

    A None result is the negative answer, not a failure.  Supports are
    ordered, so ``t``'s pairs split into runs, one per generator used.  A
    run's first position must lie in the support of the generator whose
    window ``[min_support, max_support]`` holds it: the generator after the
    previous run's is tried first, and the sequence is bisected only when
    the position lies past that one's window.  The generator's value there
    forces the exponent, and the run must then be exactly the generator's
    tetris image at that exponent, checked against the stored pairs: one
    tuple compare at exponent 0, and above it a walk that compares each
    lowered pair in place and builds no image.  Unstarred, exponent 0 must
    occur.

    The witness is built here and re-evaluated before being returned, so a
    positive answer is checked: the levels agree, so comparing the
    evaluated pairs with ``t``'s is the test ``check_witness`` makes, and a
    mismatch raises its error.
    """
    if t.k != seq.k:
        raise MismatchedLevel(f"levels {t.k} and {seq.k}")
    pairs, blocks = t.pairs, seq.blocks
    n = len(blocks)
    terms = []
    zero = starred
    g = -1
    i, size = 0, len(pairs)
    while i < size:
        pos, v = pairs[i]
        g += 1
        if g == n:
            return None
        stored = blocks[g].pairs
        if stored[-1][0] < pos:
            # the last generator to start at or before ``pos``: the pairs
            # tuples order as their first positions do; unless its window
            # holds ``pos``, no window does
            g = bisect_left(blocks, ((pos + 1,),), g + 1, n, key=_PAIRS) - 1
            stored = blocks[g].pairs
            if stored[-1][0] < pos:
                return None
        at, w = stored[0]
        if at != pos:
            # off the support this reads another position's value, and the
            # image then lacks (pos, v), so the compare below fails
            w = stored[bisect_left(stored, (pos,))][1]
        e = w - v
        if e > 0:
            for p, x in stored:
                if x > e:
                    if i == size:
                        return None
                    q, y = pairs[i]
                    if q != p or y + e != x:
                        return None
                    i += 1
        elif e:
            return None
        else:
            end = i + len(stored)
            if pairs[i:end] != stored:
                return None
            i, zero = end, True
        terms.append((g, e))
    if not zero:
        return None
    witness = _new(Combination)
    _set_terms(witness, tuple(terms))
    _set_starred(witness, starred)
    if evaluate(seq, witness).pairs != pairs:
        raise _mismatch(witness, t)
    return witness


# before the first position: no window open, no exponent 0 seen on either side
_START = (None, False, None, False)
# a layer entry's marks: bit 1 (2) is set when some path reaching the state
# has a left (right) witness that uses no generator below the tail index,
# and bit 4 when some path uses left generator ``fresh`` at exponent 0
_LEFT_MARK, _RIGHT_MARK, _FRESH_MARK = 1, 2, 4
# below every layer entry's peak position, which is -1 at the least
_NO_PEAK = (None, -2)


def _grow(lg, rg, state, chains):
    """Both witnesses' term chains after entering ``state`` at a position
    where left generator ``lg`` and right generator ``rg`` open (None for
    no generator)."""
    left, right = chains
    if lg is not None and state[0] >= 0:
        left = ((lg, state[0]), left)
    if rg is not None and state[2] >= 0:
        right = ((rg, state[2]), right)
    return left, right


def _chain_terms(chain):
    """The items of a cons chain ``(item, rest)``, head first."""
    terms = []
    while chain is not None:
        term, chain = chain
        terms.append(term)
    return terms


def _walked_terms(chains):
    """Both witnesses' terms, in index order, from the chains a forward
    walk grew."""
    left, right = chains
    return tuple(reversed(_chain_terms(left))), tuple(reversed(_chain_terms(right)))


def _reaching(blocks, stop, lo):
    """The least index from which every window of ``blocks[:stop]`` reaches
    ``lo``: windows end in order, so the walk back from ``stop`` ends at the
    first window that ends before ``lo``."""
    first = stop
    while first and blocks[first - 1].pairs[-1][0] >= lo:
        first -= 1
    return first


def _side_moves(step, choice, k):
    """One side's ``(choice, value, generator used)`` moves at a step, from
    a state whose choice on that side is ``choice``: outside every window
    (None), the one move to "no window" at value 0; inside a window open at
    value v, the one move that keeps the choice; where a generator's
    support starts at value v (``(v, forced)``), one move per choice, or
    only ``forced``'s, each exponent using the generator.  Exponent e gives
    the value v - e where that is positive, else 0, as "unused" does."""
    if step is None:
        return ((None, 0, False),)
    opens = step.__class__ is tuple
    v, forced = step if opens else (step, choice)
    choices = range(_UNUSED, k) if forced is None else (forced,)
    return tuple((c, v - c if 0 <= c < v else 0, opens and c >= 0) for c in choices)


class _Joins:
    """A level's sweep moves, between states and pairs of steps interned
    as small ints.

    A state gets the next id the first time a move reaches it, and the
    start state has id 0; per id, ``states`` holds the state, ``accepts``
    whether both sides saw exponent 0 (the state accepts) and ``zeros``
    whether its left choice is 0.  A position's ``(left step, right
    step)`` gets its id from ``pair``.  ``rows[state id][pair id]`` holds
    the legal moves ``(new state id, value, left generator used, right
    generator used)``, or None until ``join`` builds them: the left
    side's choices in order and, for each, the right side's choices of
    the same value in order (``_side_moves`` gives the steps' shapes).
    The two sides are joined on value, so an entry costs its own moves
    plus one pass over each side's choices.

    An entry is built the first time a sweep meets it and kept for every
    later sweep at the level, so the table holds one entry per state and
    pair of steps that a sweep met: at most the level's 4(k+2)^2 states
    times its pairs of steps.  Ids are never given again, so a layer keyed
    by them holds for every later sweep at the level.
    """

    def __init__(self, k):
        # a start at a small value on both sides joins about (k+1)^2 moves
        # of value 0, and the states they reach grow with k
        if (k + 1) ** 2 > 2**22:
            raise EnumerationCapExceeded(f"level {k} needs {(k + 1) ** 2} sweep moves, cap is 2^22")
        self.k = k
        self.state_ids, self.states, self.accepts, self.zeros = {}, [], [], []
        self.pair_ids, self.pairs, self.rows = {}, [], []
        self.intern(_START)

    def intern(self, state):
        """The id of ``state``, given the first time it is met."""
        sid = self.state_ids.get(state)
        if sid is None:
            sid = self.state_ids[state] = len(self.states)
            self.states.append(state)
            self.accepts.append(state[1] and state[3])
            self.zeros.append(state[0] == 0)
            self.rows.append([None] * len(self.pairs))
        return sid

    def pair(self, steps):
        """The id of ``steps``, a ``(left step, right step)``, given the
        first time it is met."""
        pid = self.pair_ids.get(steps)
        if pid is None:
            pid = self.pair_ids[steps] = len(self.pairs)
            self.pairs.append(steps)
            for row in self.rows:
                row.append(None)
        return pid

    def join(self, sid, pid):
        """The moves from state ``sid`` at steps ``pid``, built and kept."""
        (lstep, rstep), (cl, zl, cr, zr) = self.pairs[pid], self.states[sid]
        right = {}
        for c2, v, rused in _side_moves(rstep, cr, self.k):
            right.setdefault(v, []).append((c2, rused))
        moves = self.rows[sid][pid] = tuple(
            (self.intern((c1, zl or c1 == 0, c2, zr or c2 == 0)), v, lused, rused)
            for c1, v, lused in _side_moves(lstep, cl, self.k)
            for c2, rused in right.get(v, ())
        )
        return moves


_JOINS = {}  # per level, its ``_Joins``


def _joins(k):
    """The level's move table, made by its first sweep."""
    return _JOINS[k] if k in _JOINS else _JOINS.setdefault(k, _Joins(k))


_NO_PAIR = (math.inf, None, None)  # a used-up support walk


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


def _sweep_steps(left, right, force, walked, joins):
    """Per position a sweep walks, ascending, ``(pos, left generator
    opened, steps id, right generator opened)``, from one merged walk of
    both sides' supports, the steps id being the id in ``joins`` of
    ``(left step, right step)``.  A side's step is plain data, which
    ``_Joins`` turns into moves: None outside every window, the value
    v inside an open window (0 off its support), and ``(v, forced)`` where
    a generator's support starts, ``forced`` being the one choice ``force``
    allows or None.  A side opens its generator only at such a start; the
    generator opened is None elsewhere.

    The positions lie inside the hull of the left generators not forced
    unused, widened to every right window it cuts: outside it every left
    value is 0, so every right generator whose window misses it is unused.
    A resumed sweep starts past its kept layer's position ``walked``, with
    each side's window that straddles it already open, and walks to its
    bounds over blocks it walks or generators forced unused, bisecting only
    for the right side's upper end.  A fresh sweep opens no window before
    its first position (its hull may start inside the window of a left
    generator forced unused) and bisects for both ends of the right side.

    Inside the hull, a window ``[min_support, max_support]`` that holds no
    support position of the other side is skipped whole, unless ``force``
    fixes its left generator to an exponent: used at exponent e < k, the
    generator keeps the value k - e >= 1 at its peak, where the other
    side's value is 0, so only "unused" survives it.  At its positions the
    other side is off its support, so its step (0 or None) gives the value
    0 and no answer moves; the skipped side keeps a stale choice, which the
    next opening overwrites or the next step outside every window maps to
    None.
    The hull is the outer case of the same rule.
    """
    blocks, others = left.blocks, right.blocks
    pair = joins.pair
    last = len(blocks) - 1
    while last >= 0 and force.get(last) == _UNUSED:
        last -= 1
    if last < 0:
        return
    hi = blocks[last].pairs[-1][0]
    rstop = bisect_right(others, hi, key=_BY_MIN_SUPPORT)
    if walked is None:
        first = 0
        while force.get(first) == _UNUSED:
            first += 1
        lo = blocks[first].pairs[0][0]
        rfirst = bisect_left(others, lo, 0, rstop, key=_BY_MAX_SUPPORT)
    else:
        lo = walked + 1
        rfirst = _reaching(others, rstop, lo)
    if rfirst < rstop:
        hi = max(hi, others[rstop - 1].pairs[-1][0])
        if walked is None:
            lo = min(lo, others[rfirst].pairs[0][0])
    lstop = last + 1
    while lstop < len(blocks) and blocks[lstop].pairs[0][0] <= hi:
        lstop += 1
    lfirst = _reaching(blocks, lstop if walked is not None else first, lo)
    # per side: the open generator, the one opened at the current position
    # and the open window's last position
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
            # the next right position lies past the window: skip it unless
            # ``force`` fixes an exponent
            end = blocks[lg].pairs[-1][0]
            forced = force.get(lg)
            if ra > end and forced in (None, _UNUSED):
                la, lg, lv = lsupport.send(True)
                continue
            lopen, lend, lopened = lg, end, lg
            lstep = lv, forced
        if ra != pos:
            rstep = 0 if pos < rend else None
        elif rg == ropen:
            rstep = rv
        else:
            # a window skipped here holds no left position, so the left
            # side is not at ``pos`` and its branch above changed nothing
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


def _fold_least(seen, least, ended, lg, rg, states, symbols, base, by_witness):
    """The least prefix reaching each state after one position, and by
    witness the least ended prefix, as maps state id -> (key, chains).

    ``seen`` holds the position's (state id, moves) for every state before
    it, ``states`` the level's states by id, and ``least`` and ``ended``
    the prefixes that reach those states.
    Where left generator ``lg`` opens, a key gains the symbol of the move's
    left choice (``symbols``), and an ended key the symbol -1 + 1 = 0.  By
    witness, a move that uses ``lg`` may end the witness at that term, so
    its prefix is an ended one too, sharing the grown chains; every other
    move carries the ended prefix on.
    """
    nleast, nended = {}, {}
    for state, moves in seen:
        key, chains = least[state]
        prior = ended.get(state)
        if lg is not None:
            key *= base
            if prior is not None:
                prior = prior[0] * base, prior[1]
        for new, _, lused, rused in moves:
            grows = lused or rused
            state = states[new]
            new_key = key + symbols[state[0]] if lg is not None else key
            entry = None
            found = nleast.get(new)
            if found is None or new_key < found[0]:
                entry = nleast[new] = new_key, _grow(lg, rg, state, chains) if grows else chains
            if lused and by_witness:
                found = nended.get(new)
                if found is None or new_key < found[0]:
                    nended[new] = entry or (new_key, _grow(lg, rg, state, chains))
            elif prior is not None:
                found = nended.get(new)
                if found is None or prior[0] < found[0]:
                    nended[new] = prior[0], _grow(lg, rg, state, prior[1]) if grows else prior[1]
    return nleast, nended


def _ranked(*prefixes):
    """Replace every key in the maps ``prefixes`` by its rank and return
    how many keys there are: keys held after one position are equally
    long, so ranks keep their order."""
    keys = sorted({key for held in prefixes for key, _ in held.values()})
    ranks = dict(zip(keys, range(len(keys))))
    for held in prefixes:
        for state, (key, chains) in held.items():
            held[state] = ranks[key], chains
    return len(keys)


class _Sweep:
    """Every question about the common elements of two spans, in one pass.

    The sweep walks both sequences' support positions inside the hull of
    the left generators it may use (``_sweep_steps``), skipping every
    window that holds no support position of the other side: its
    generator keeps the value k - e >= 1 at its peak when used at exponent
    e, where the other side's value is 0, so it can only be unused, and no
    answer moves at its positions.  Supports are
    ordered, so on each side at most one generator window ``[min_support,
    max_support]`` holds a position, and that generator's choice (unused
    or an exponent) is fixed where its support starts.  A state is ``(left
    choice, left saw exponent 0, right choice, right saw exponent 0)``, the
    choice being None outside every window, so there are at most
    4(k+2)^2 states; a move is legal only where both sides give the same
    value.  A state's moves at a position come from the level's table
    (``_Joins``), keyed by the state and both sides' steps and joined on
    value, so a sweep builds only the moves it meets and every sweep at
    the level shares them.  The table interns states and pairs of steps as
    small ints: a layer is keyed by state id, each position carries its
    steps' id, and a state's moves are ``rows[state id][steps id]``.
    Witnesses are unique, so the accepting paths match the common elements
    one to one.  After the last position, one pass over the layer reads
    every answer off its accepting states.

    ``force`` maps left generator indices to a fixed choice: ``_UNUSED`` or
    one exponent.  The forward pass folds, per state and move by move, the
    number of paths, the largest last position of value k (with the terms
    of a path attaining it: when several do, the fold order over the
    positions walked picks one), the smallest largest left index used and
    three
    marks merged by "or": ``count``, ``peak`` (the valuation F) with
    ``peak_element``, ``prefix_length``, and ``tails`` and ``fresh_used``,
    which tell whether each side's tail from generator ``tail`` on meets
    the other span and whether some common element uses left generator
    ``fresh`` at exponent 0.

    With ``order``, each position's moves also fold, after that pass and
    in ``_fold_least``, into the least prefix reaching each state, so
    ``least`` is the common element with the least value vector
    ("value") or left witness ("witness"), or None.  A prefix's key has one
    symbol per left generator opened, since every value follows from the
    choice made where its window starts (0 outside every window).  By value
    the symbol is 0 for unused and k - e for exponent e: T^e(p) decreases
    lexicographically in e and stays above the zero vector.  By witness it
    is e when used; when unused, k while a later left term follows and -1
    once the witness has ended, so that order also folds the least *ended*
    prefix, entered at its last left term.  A key is its predecessor's
    times k + 2 plus the symbol + 1; keys that may pass 2^64 are ranked.
    A skipped left generator adds no symbol, and the order stays: every
    path leaves it unused, so by value its symbol is 0 on every key, and
    by witness it is k on every key that goes on and -1 on every ended
    one, which holds -1 again at the next generator opened, where a key
    that goes on holds a larger symbol.

    Only ``walk``, for listing (``elements``), keeps every step's moves, so
    otherwise memory does not grow with the positions.  Witness terms grow
    as cons chains, only on a move that uses a generator opened there and
    once per move for the least and least ended prefix when they coincide;
    an element handed out builds its block from its left terms' tetris
    images and re-evaluates the right witness.

    A sweep without ``walk`` keeps one layer, the states after its last
    walked position at or below ``left``'s last ``max_support``, which a
    sweep over a longer left sequence shares: its later blocks start past
    that position, a left window skipped before it is skipped again, and a
    right window that reaches past it holds ``left``'s last position, so
    it is never skipped.  (The hull's last layer is not kept: a right
    window can widen the hull past it, into the next left block.)
    ``resume`` takes such a
    sweep over a prefix of ``left`` against the same ``right``, with
    ``force`` and ``tail`` agreeing on the prefix and ``fresh`` past it,
    and walks only the positions past its kept layer, with the windows
    that straddle it already open (on the left, only a generator forced
    unused can).  It starts from the kept layer itself, not a copy: the
    fold writes only to the layer it builds, so no sweep writes to a layer
    another one holds.  Only a kept layer that carries a fresh mark, which
    names the kept sweep's generator, is copied with the mark cleared.  So
    its set-up grows with the positions it walks, and it takes its kept
    sweep's last rechecked peak element, which ``peak_element`` hands out
    again while the peak path holds the same chains at the same F.  A kept
    layer holds no least prefixes, so ``order`` is not asked of a resumed
    sweep.
    """

    def __init__(
        self, left, right, force=None, walk=False, resume=None, tail=0, fresh=None, order=None
    ):
        if left.k != right.k:
            raise MismatchedLevel(f"levels {left.k} and {right.k}")
        self.left, self.right, self.k = left, right, left.k
        force = force or {}
        k = self.k
        self._joins = joins = _joins(k)
        rows, states, zeros = joins.rows, joins.states, joins.zeros
        # with ``walk``, per step: the left generator opened there, or
        # None, and the right one; then (state id, moves) per state before it
        self.opened = [] if walk else None
        self.moves = [] if walk else None
        # per state id of the current layer: [paths, last position of value k,
        # both witnesses' term chains on a path attaining it, largest left
        # index used, its marks], -1 standing for "none yet"; earlier
        # layers are not kept, so the path counts, which grow to big
        # integers, are not stored
        walked, layer = None, {0: [1, -1, (None, None), -1, _LEFT_MARK | _RIGHT_MARK]}
        # the last rechecked peak element's chains, its F and itself
        self._rechecked = None if resume is None else resume._rechecked
        if resume is not None:
            # the fold writes only to the layer it builds, so the kept layer
            # is shared, and copied only to clear a fresh mark, which names
            # the kept sweep's generator
            walked, layer = resume._kept
            for held in layer.values():
                if held[4] & _FRESH_MARK:
                    layer = {
                        sid: [*entry[:4], entry[4] & ~_FRESH_MARK] for sid, entry in layer.items()
                    }
                    break
        kept_pos, kept_layer = walked, layer
        ordered, by_witness, base, bound = order is not None, order == "witness", k + 2, 1
        if ordered:
            # per left choice where a left generator opens: its symbol + 1
            symbols = {e: 1 + (e if by_witness else k - e) for e in range(k)}
            symbols[_UNUSED] = 1 + k if by_witness else 1
            least, ended = {0: (0, (None, None))}, {}
        record = walk or ordered
        boundary = left.blocks[-1].max_support if left.blocks else -1
        for pos, lg, pid, rg in _sweep_steps(left, right, force, walked, joins):
            nxt = {}
            seen = []
            # a used generator below the tail index clears its side's mark,
            # and left generator ``fresh`` used at exponent 0 sets its own
            lkeep = ~_LEFT_MARK if lg is not None and lg < tail else -1
            rkeep = ~_RIGHT_MARK if rg is not None and rg < tail else -1
            lfresh = _FRESH_MARK if lg is not None and lg == fresh else 0
            for sid, (paths, top, chains, last, marks) in layer.items():
                moves = rows[sid][pid]
                if moves is None:
                    moves = joins.join(sid, pid)
                if record:
                    seen.append((sid, moves))
                for new, v, lused, rused in moves:
                    m = marks
                    if lused:
                        m = m & lkeep | (lfresh if zeros[new] else 0)
                    if rused:
                        m &= rkeep
                    new_top = pos if v == k else top
                    new_last = lg if lused else last
                    held = nxt.get(new)
                    if held is None:
                        # chains grow only when a witness gains a term
                        grown = _grow(lg, rg, states[new], chains) if lused or rused else chains
                        nxt[new] = [paths, new_top, grown, new_last, m]
                    else:
                        held[0] += paths
                        if new_top > held[1]:
                            held[1] = new_top
                            grown = _grow(lg, rg, states[new], chains) if lused or rused else chains
                            held[2] = grown
                        if new_last < held[3]:
                            held[3] = new_last
                        held[4] |= m
            layer = nxt
            if pos <= boundary:
                kept_pos, kept_layer = pos, layer
            if ordered:
                least, ended = _fold_least(
                    seen, least, ended, lg, rg, states, symbols, base, by_witness
                )
                if lg is not None:
                    bound *= base  # every key held stays below it
                    if bound >> 64:
                        bound = _ranked(least, ended)
            if walk:
                self.opened.append((lg, rg))
                self.moves.append(seen)
        self._kept = kept_pos, kept_layer
        # one pass over the accepting states, in layer order: the first
        # one with the largest peak position is the peak entry
        self.accepting = accepting = []
        count = marks = 0
        best, least_last = _NO_PEAK, math.inf
        accepts = joins.accepts
        for sid, held in layer.items():
            if accepts[sid]:
                accepting.append(sid)
                count += held[0]
                marks |= held[4]
                if held[1] > best[1]:
                    best = held
                if held[3] < least_last:
                    least_last = held[3]
        self.count = count
        # whether the left (right) tail from generator ``tail`` on meets the
        # other span: some common element's left (right) witness uses no
        # generator below ``tail``
        self.tails = bool(marks & _LEFT_MARK), bool(marks & _RIGHT_MARK)
        # whether some common element uses generator ``fresh`` at exponent 0
        self.fresh_used = bool(marks & _FRESH_MARK)
        self.peak = self.prefix_length = self.least = None
        if accepting:
            self.peak, self._peak_chains = best[1], best[2]
            self.prefix_length = least_last + 1
            if ordered:
                # keys differ among accepting states: each is one element
                held = ended if by_witness else least
                self.least = self._element(*_walked_terms(min(map(held.get, accepting))[1]))

    def _element(self, left_terms, right_terms):
        blocks = self.left.blocks
        block = Subblock._raw(
            self.k, tuple(p for g, e in left_terms for p in tetris(blocks[g], e).pairs)
        )
        element = CommonElement(
            block, Combination._trusted(left_terms), Combination._trusted(right_terms)
        )
        check_witness(self.right, element.right_witness, block)
        return element

    def elements(self):
        """Every common element, in no particular order.

        Walks the moves backward from the accepting states: every recorded
        state is reachable from the start, so no partial path dies.
        """
        states = self._joins.states
        suffixes = {sid: [(None, None)] for sid in self.accepting}
        for i in range(len(self.moves) - 1, -1, -1):
            lg, rg = self.opened[i]
            before = {}
            for sid, moves in self.moves[i]:
                for new, _, lused, rused in moves:
                    found = suffixes.get(new)
                    if found is None:
                        continue
                    if lused or rused:
                        found = [_grow(lg, rg, states[new], chains) for chains in found]
                    before.setdefault(sid, []).extend(found)
            suffixes = before
        return [
            self._element(tuple(_chain_terms(left)), tuple(_chain_terms(right)))
            for left, right in suffixes.get(0, ())
        ]

    def peak_element(self):
        """The recorded element attaining F, both witnesses re-evaluated.

        A resumed sweep whose peak path holds the very chains of the
        element its kept sweep rechecked last, at the same F, hands that
        element out again without walking them: chains are never changed,
        so they hold the same terms, which name the same blocks in both
        sweeps.
        """
        chains = self._peak_chains
        held = self._rechecked
        if held is not None and held[0] is chains and held[1] == self.peak:
            return held[2]
        element = self._element(*_walked_terms(chains))
        check_witness(self.left, element.left_witness, element.block)
        if peak(element.block) != self.peak:
            raise WitnessMismatch(
                f"element {element.block.render()} does not attain F={self.peak}"
            )
        self._rechecked = chains, self.peak, element
        return element

    def valuation(self, horizon):
        """F over the common elements, backed by its rechecked element."""
        if self.count:
            self.peak_element()
        return HorizonValuation(self.peak, horizon, self.count)


def intersect_spans(left, right, cap_bits=DEFAULT_CAP_BITS):
    """All blocks common to both spans, each with a witness per side.

    Results are sorted by the left witness (index tuple, then exponents).
    The exact count is known before listing: more than ``2^cap_bits``
    elements raise EnumerationCapExceeded.
    """
    sweep = _Sweep(left, right, walk=True)
    _check_listing(sweep.count, "common elements", cap_bits)
    common = sweep.elements()
    common.sort(key=lambda ce: ce.left_witness.sort_key())
    return tuple(common)


def first_common_element(left, right):
    """The common element with the least left witness, or None.

    Witnesses compare as tuples of (index, exponent) terms, so the answer
    does not depend on which side is larger.
    """
    return _Sweep(left, right, order="witness").least


def valuation(blocks, horizon=None):
    """The valuation F of a finite set of blocks as a HorizonValuation.

    The horizon defaults to the widest support; a block reaching past an
    explicit horizon raises HorizonExhausted.  Blocks are checked in order,
    each for its peak first, so the first offending one names the error.
    """
    blocks = list(blocks)
    value = None
    widest = 0
    for b in blocks:
        k, pairs = b.k, b.pairs
        # the peak, scanned from the right as ``peak`` does
        for top, v in reversed(pairs):
            if v == k:
                break
        else:
            peak(b)  # raises NotABlock
        if value is None or top > value:
            value = top
        end = pairs[-1][0]  # a block has pairs: the scan found one
        if end > widest:
            widest = end
        if horizon is not None and end > horizon:
            raise HorizonExhausted(f"block {b.render_body()} reaches past horizon {horizon}")
    if horizon is None:
        horizon = widest
    return HorizonValuation(value=value, horizon=horizon, element_count=len(blocks))
