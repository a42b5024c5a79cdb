"""Finite block sequences and exact span computations.

The span of a finite block sequence P = (p_0, ..., p_{N-1}) is the set of
sums ``T^{j_0}(p_{n_0}) + ... + T^{j_m}(p_{n_m})`` over strictly increasing
index tuples, with exponents in {0, ..., k-1} and minimal exponent 0.  The
starred span drops the minimality constraint (equivalently: it is closed
under further tetris moves) and additionally contains the empty subblock.

Everything here is exact and deterministic: enumeration walks the
``(k+1)^N`` generator-exponent assignments (capped), membership is decided
directly from the forced exponents, and every positive answer carries a
witness combination that evaluates back to the queried subblock.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .blocks import Subblock, add, peak, tetris
from .errors import (
    EnumerationCapExceeded,
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

# Default cap on the enumeration search space: N * log2(k+1) bits.
DEFAULT_CAP_BITS = 24.0


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
        clone = object.__new__(BlockSequence)
        clone.k = self.k
        clone.blocks = self.blocks[:n]
        return clone

    @cached_property
    def _position_index(self):
        # position -> (generator index, value); supports are pairwise disjoint
        return {pos: (g, v) for g, b in enumerate(self.blocks) for pos, v in b.pairs}

    @cached_property
    def _images(self):
        # per generator, the pairs of its tetris image for exponents 0..k-1
        return [[tetris(b, e).pairs for e in range(self.k)] for b in self.blocks]

    @classmethod
    def parse_file(cls, text):
        """Parse the sequence file format: a ``k=<K>`` header line, then one
        block body per line.  Blank lines and ``#`` comments are skipped."""
        return cls(*parse_block_lines(text))

    def render_file(self):
        lines = [f"k={self.k}"]
        lines.extend(b.render_body() for b in self.blocks)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Combination:
    """A formal sum ``sum_l T^{j_l}(p_{n_l})`` over a block sequence.

    ``terms`` is a tuple of (generator index, tetris exponent) pairs with
    strictly increasing indices.  Unstarred combinations are nonempty and
    have minimal exponent 0, so they always evaluate to a block; the empty
    starred combination stands for the empty subblock (the image of any
    span element under T^k).
    """

    terms: tuple
    starred: bool = False

    def __post_init__(self):
        last = -1
        for term in self.terms:
            index, exponent = term
            if index <= last:
                raise InvalidCombination(f"indices must strictly increase at {term}")
            if exponent < 0:
                raise InvalidCombination(f"negative exponent at {term}")
            last = index
        if not self.starred:
            if not self.terms:
                raise InvalidCombination("an unstarred combination needs at least one term")
            if min(e for _, e in self.terms) != 0:
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
        body = text.strip()
        if body == "-":
            return cls((), starred=True)
        terms = []
        for chunk in body.split("+"):
            piece = chunk.strip()
            if "^" not in piece:
                raise ParseError(f"expected <index>^<exponent>, got {piece!r}")
            left, _, right = piece.partition("^")
            try:
                terms.append((int(left), int(right)))
            except ValueError:
                raise ParseError(f"non-integer entry {piece!r}") from None
        try:
            return cls(tuple(terms), starred=starred)
        except InvalidCombination as exc:
            raise ParseError(str(exc)) from None


@dataclass(frozen=True)
class HorizonValuation:
    """The valuation F over a finite set of blocks, tagged with its horizon.

    ``value`` is the maximum over the set of the rightmost position where k
    is attained, or None (bottom) for the empty set.  Bottom deliberately
    differs from 0: an empty intersection and one whose elements attain k
    only at position 0 are different findings.
    """

    value: int | None
    horizon: int
    element_count: int

    def __post_init__(self):
        if (self.value is None) != (self.element_count == 0):
            raise ValueError("value is bottom exactly for the empty set")
        if self.value is not None and self.value > self.horizon:
            raise ValueError(f"valuation {self.value} exceeds horizon {self.horizon}")

    @property
    def is_bottom(self):
        return self.value is None

    def render_value(self):
        return "bottom" if self.value is None else str(self.value)

    def render(self):
        return f"F={self.render_value()} count={self.element_count} horizon={self.horizon}"


@dataclass(frozen=True)
class SpanEnumeration:
    """All span elements with their witnesses, canonically ordered.

    The empty subblock is never listed among ``elements``; it is a member
    of every starred span (the empty sum) and ``includes_empty`` records that.
    """

    elements: tuple
    includes_empty: bool

    def blocks(self):
        return tuple(block for block, _ in self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class CommonElement:
    """A subblock lying in two spans at once, with one witness per side."""

    block: Subblock
    left_witness: Combination
    right_witness: Combination


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
                k = int(line[2:])
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
    """Evaluate a combination over a sequence to the subblock it denotes."""
    total = Subblock._raw(seq.k, ())
    for index, exponent in comb.terms:
        if not 0 <= index < len(seq):
            raise IndexOutOfRange(f"index {index} outside 0..{len(seq) - 1}")
        if exponent >= seq.k:
            raise InvalidCombination(f"exponent {exponent} not below level {seq.k}")
        total = add(total, tetris(seq.blocks[index], exponent))
    return total


def check_witness(seq, witness, block):
    """Re-evaluate a witness; raise WitnessMismatch unless it produces ``block``."""
    if evaluate(seq, witness) != block:
        raise WitnessMismatch(f"witness {witness.render()} does not produce {block.render()}")


def _check_cap(seq, cap_bits):
    bits = len(seq) * math.log2(seq.k + 1)
    if bits > cap_bits:
        raise EnumerationCapExceeded(
            f"{len(seq)} generators at level {seq.k} need {bits:.1f} bits, cap is {cap_bits}"
        )


def _iter_span_raw(seq, starred):
    """Yield (pairs, subset, exponents) for every nonempty span element.

    Supports are ordered, so concatenating the images of the used
    generators gives the element's canonical ascending pairs.
    """
    n = len(seq)
    if n == 0:
        return
    images = seq._images
    exponent_space = range(seq.k)
    for m in range(1, n + 1):
        for subset in itertools.combinations(range(n), m):
            rows = [images[i] for i in subset]
            for exps in itertools.product(exponent_space, repeat=m):
                if not starred and 0 not in exps:
                    continue
                pairs = ()
                for row, e in zip(rows, exps):
                    pairs += row[e]
                yield pairs, subset, exps


def enumerate_span(seq, starred=False, cap_bits=DEFAULT_CAP_BITS):
    """Materialize the whole (starred) span with one witness per element."""
    _check_cap(seq, cap_bits)
    pairs = [
        (Subblock._raw(seq.k, pairs), Combination(tuple(zip(subset, exps)), starred))
        for pairs, subset, exps in _iter_span_raw(seq, starred)
    ]
    pairs.sort(key=lambda pair: pair[1].sort_key())
    return SpanEnumeration(tuple(pairs), includes_empty=starred)


def _witness_terms(pairs, seq, starred):
    """The unique witness terms for ``pairs`` in seq's span, or None.

    Every supported position must fall in exactly one generator's support;
    that generator's exponent is forced, must be constant, and must
    annihilate the generator's remaining positions: the positions hit in
    generator g are all of g's image at its forced exponent.  Supports are
    ordered, so each generator's positions form one run of ``pairs``.
    """
    position_index = seq._position_index
    images = seq._images
    terms = []
    g = e = None
    hits = 0
    for pos, v in pairs:
        found = position_index.get(pos)
        if found is None:
            return None
        h, hv = found
        if h == g:
            if hv - v != e:
                return None
            hits += 1
            continue
        if g is not None and hits != len(images[g][e]):
            return None
        g, e, hits = h, hv - v, 1
        if e < 0:
            return None
        terms.append((g, e))
    if g is None or hits != len(images[g][e]):
        return None
    if not starred and min(e for _, e in terms) != 0:
        return None
    return tuple(terms)


def membership_witness(t, seq, starred=False):
    """Decide span membership; returns the unique witness or None.

    A None result is the negative answer, not a failure.  The witness is
    re-evaluated before being returned, so a positive answer is checked.
    """
    if t.k != seq.k:
        raise MismatchedLevel(f"levels {t.k} and {seq.k}")
    if t.is_empty:
        return Combination((), starred=True) if starred else None
    terms = _witness_terms(t.pairs, seq, starred)
    if terms is None:
        return None
    witness = Combination(terms, starred)
    check_witness(seq, witness, t)
    return witness


def _iter_common(left, right, cap_bits):
    """Yield CommonElements in enumeration order of the cheaper side."""
    if left.k != right.k:
        raise MismatchedLevel(f"levels {left.k} and {right.k}")
    k = left.k
    swap = (k + 1) ** len(right) < (k + 1) ** len(left)
    inner, outer = (right, left) if swap else (left, right)
    _check_cap(inner, cap_bits)
    for pairs, subset, exps in _iter_span_raw(inner, starred=False):
        other_terms = _witness_terms(pairs, outer, starred=False)
        if other_terms is None:
            continue
        block = Subblock._raw(k, pairs)
        inner_comb = Combination(tuple(zip(subset, exps)), starred=False)
        outer_comb = Combination(other_terms, starred=False)
        check_witness(outer, outer_comb, block)
        if swap:
            yield CommonElement(block, outer_comb, inner_comb)
        else:
            yield CommonElement(block, inner_comb, outer_comb)


def intersect_spans(left, right, cap_bits=DEFAULT_CAP_BITS):
    """All blocks common to both spans, each with a witness per side.

    Results are sorted by the left witness (index tuple, then exponents).
    """
    common = list(_iter_common(left, right, cap_bits))
    common.sort(key=lambda ce: ce.left_witness.sort_key())
    return tuple(common)


def first_common_element(left, right, cap_bits=DEFAULT_CAP_BITS):
    """The first common element found, or None; cheap emptiness probe."""
    return next(_iter_common(left, right, cap_bits), None)


def valuation(blocks, horizon=None):
    """The valuation F of a finite set of blocks as a HorizonValuation."""
    blocks = list(blocks)
    value = None
    widest = 0
    for b in blocks:
        value = peak(b) if value is None else max(value, peak(b))
        widest = max(widest, b.max_support)
    if horizon is None:
        horizon = widest
    return HorizonValuation(value=value, horizon=horizon, element_count=len(blocks))
