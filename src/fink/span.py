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
question about two spans at once is one position sweep, which lives in
``fink.sweep`` and is loaded on the first such question (``_sweeping``):
``intersect_spans``, ``first_common_element`` and ``structure`` reach it
through that, so a program that asks only about one span never compiles
it.  Every positive
answer carries a witness combination that evaluates back to the queried
subblock.  Evaluation appends each term's lowered pairs to one list.  A
combination whose terms the library made itself is built unchecked, while
one read from a caller or from text is checked; either way a positive
answer's witness is evaluated again, by the pairs core ``evaluate_pairs``
with no subblock built, and its pairs and level are compared with the
answer's (a membership answer compares the pairs alone, since its levels
were checked on entry).  ``evaluate`` wraps the same pairs in a subblock.
The records made once per element run no Python frame of their own:
``_span_walk`` builds each listed element and its witness and
``membership_witness`` its witness, each allocated with ``object.__new__``
and filled through the slot setters.
"""

import functools
import itertools
import math
from bisect import bisect_left
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

# allocates an instance whose slots the caller fills through their setters
_new = object.__new__

# bisection key over a sequence's blocks
_PAIRS = attrgetter("pairs")


class BlockSequence:
    """An ordered finite sequence of blocks with strictly increasing supports."""

    __slots__ = ("k", "blocks")

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
        """This sequence with ``block`` appended, checking only the join as
        the constructor would, from the pairs: the last block's and then
        ``block``'s level and block-ness, then that ``block`` lies after."""
        k, blocks = self.k, self.blocks
        for b in blocks[-1:] + (block,):
            if b.k != k:
                raise MismatchedLevel(f"sequence level {k}, block {b.render()}")
            for _, v in b.pairs:
                if v == k:
                    break
            else:
                raise InvalidSequence(f"not a block: {b.render()}")
        if blocks and blocks[-1].pairs[-1][0] >= block.pairs[0][0]:
            raise InvalidSequence(
                f"supports out of order: {blocks[-1].render_body()} !< {block.render_body()}"
            )
        seq = _new(BlockSequence)
        seq.k, seq.blocks = k, blocks + (block,)
        return seq

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


# unchecked, inline: ``_span_walk``, ``membership_witness`` (which then
# evaluates the witness) and ``sweep._Sweep._element`` (both witnesses of
# an accepting path, which sees exponent 0 on both sides) fill a bare
# Combination's slots from terms they made themselves
_set_terms, _set_starred = Combination._setters


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
        _filled_valuation(self, value, horizon, element_count)

    def render_value(self):
        return "bottom" if self.value is None else str(self.value)

    def render(self):
        return f"F={self.render_value()} count={self.element_count} horizon={self.horizon}"


_set_value, _set_horizon, _set_element_count = HorizonValuation._setters


def _filled_valuation(record, value, horizon, element_count):
    """``record``, a bare HorizonValuation, filled and checked: the one home
    of the checks, for ``__init__`` and for ``_Sweep.valuation``."""
    _set_value(record, value)
    _set_horizon(record, horizon)
    _set_element_count(record, element_count)
    if (value is None) != (element_count == 0):
        raise ValueError("value is bottom exactly for the empty set")
    if value is not None and value > horizon:
        raise ValueError(f"valuation {value} exceeds horizon {horizon}")
    return record


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
    """Evaluate a combination over a sequence to the subblock it denotes:
    the pairs of ``evaluate_pairs`` at the sequence's level."""
    return Subblock._raw(seq.k, evaluate_pairs(seq, comb))


def evaluate_pairs(seq, comb):
    """The pairs tuple of the subblock a combination denotes over a sequence.

    Terms are checked in order, index before exponent, so the first bad
    term is the one named.  A generator whose first position lies after
    the pairs gathered so far (always, over ordered supports) has its
    lowered pairs appended straight onto one result list, with no image
    built; at exponent 0 its stored pairs are appended whole.  Any other
    generator's image is built and, unless it still starts after the
    gathered pairs, merged by ``add``, which reports an overlap.  No cache
    of ``seq`` is read, so a recheck through it (``check_witness``, or
    ``membership_witness``'s own) shares nothing with the decision it
    checks.
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
    return tuple(pairs)


def check_witness(seq, witness, block):
    """Re-evaluate a witness's pairs; raise WitnessMismatch unless they are
    ``block``'s pairs and the sequence's level is ``block``'s level."""
    if evaluate_pairs(seq, witness) != block.pairs or seq.k != block.k:
        raise _mismatch(witness, block)


def _mismatch(witness, block):
    return WitnessMismatch(f"witness {witness.render()} does not produce {block.render()}")


def _check_listing(count, noun, cap_bits):
    """Refuse to list more than 2^cap_bits items, judged on their exact
    count; a cap that is not a number refuses every nonempty listing.  A
    count below 2^cap_bits by its bit length needs no logarithm."""
    if count and not (count.bit_length() <= cap_bits or math.log2(count) <= cap_bits):
        shown = count if count < 2**64 else "over 2^64"
        raise EnumerationCapExceeded(
            f"{shown} {noun} need {math.log2(count):.1f} bits, cap is {cap_bits}"
        )


# the one exponent vector, terms and pairs of an empty head
_EMPTY_HEAD = (((), (), ()),)


def _span_walk(seq, starred):
    """Yield every nonempty span element as a (Subblock, Combination)
    record, in witness order.

    Index subsets come in lexicographic order from a depth-first walk that
    keeps only the current subset.  Its head (all but the last generator)
    takes its exponent vectors in lexicographic order from one
    ``itertools.product`` per column kind (exponents, terms, images), the
    images joined into the head's pairs, and an empty head takes its one
    empty vector directly; the last generator takes every exponent when
    starred or when the head holds a 0, else 0 alone.  That is the order
    of ``Combination.sort_key``, and every vector stepped through is
    listed.  Supports are ordered, so the used generators' images
    concatenate to the element's pairs.  Each record is built where its
    element is found, its slots filled through their setters, so no
    (pairs, terms) row is kept beside it.
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
        heads = _EMPTY_HEAD
        if head_terms:
            heads = zip(
                product(exponents, repeat=len(head_terms)),
                product(*head_terms),
                map(tuple, map(chain, product(*head_images))),
            )
        for exps, terms, head in heads:
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
    # before the exact count, an integer of N*log2(k+1) bits, is built; it
    # is at most N-1 times the bit length of k+1, so it is taken only then
    if (n - 1) * (k + 1).bit_length() > 64:
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

    The witness is built here and its pairs re-evaluated by
    ``evaluate_pairs`` before it is returned, so a positive answer is
    checked: the levels agree, so comparing those pairs with ``t``'s is the
    test ``check_witness`` makes, and a mismatch raises its error.
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
    if evaluate_pairs(seq, witness) != pairs:
        raise _mismatch(witness, t)
    return witness


@functools.cache
def _sweeping():
    """The position sweep's module, ``fink.sweep``, imported on the first
    two-span question and kept: an import statement run on every call
    would cost a few microseconds each time."""
    from . import sweep

    return sweep


def intersect_spans(left, right, cap_bits=DEFAULT_CAP_BITS):
    """All blocks common to both spans, each with a witness per side.

    Results are sorted by the left witness (index tuple, then exponents).
    The exact count is known before listing: more than ``2^cap_bits``
    elements raise EnumerationCapExceeded.
    """
    sweep = _sweeping()._Sweep(left, right, walk=True)
    _check_listing(sweep.count, "common elements", cap_bits)
    common = sweep.elements()
    common.sort(key=lambda ce: ce.left_witness.sort_key())
    return tuple(common)


def first_common_element(left, right):
    """The common element with the least left witness, or None.

    Witnesses compare as tuples of (index, exponent) terms, so the answer
    does not depend on which side is larger.
    """
    return _sweeping()._Reach(left, right).least("witness")


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
