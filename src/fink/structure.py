"""Decomposition graphs, intertwined extraction, star splitting, smallness.

A block lying in two spans has one witness per side.  Its decomposition
graph is bipartite: one vertex per generator used on each side, an edge
whenever the two tetris images share support.  Supports are ordered, so
each side's images are consecutive runs of the block's pairs, and one
merge of the two sides' runs gives every edge.  The block is intertwined
when that graph is connected.  Disconnected blocks split along the
connected component of the rightmost left-side generator, and minimality
of the producing prefix forces the discarded part to miss the level k;
a discarded part attaining k is reported as a MinimalityViolation.

``star_split`` decomposes ``star(p, q)`` around an intertwined anchor p
into parts strictly below and strictly above p, after checking that the
pointwise maximum agrees with p on p's whole support window.  Failures of
that window check (ClaimViolation) would falsify the construction and
abort loudly rather than being papered over.

Extraction and the smallness probe ask about two spans at once, each in a
position sweep or two (``sweep._Sweep``), and load the sweep module when
called (``span._sweeping``), so ``graph``, ``intertwined`` and ``split``,
which only build and split decomposition graphs, never compile it.
"""

from bisect import bisect_left

from .blocks import Record, _setattr, add, star
from .errors import (
    ClaimViolation,
    MinimalityViolation,
    NoIntersection,
    NotIntertwined,
)
from .span import (
    BlockSequence,
    Combination,
    CommonElement,
    _sweeping,
    check_witness,
    evaluate,
    membership_witness,
)

__all__ = [
    "DecompositionGraph",
    "decomposition_graph",
    "is_intertwined",
    "ExtractionResult",
    "extract_intertwined",
    "star_split",
    "SmallnessCertificate",
    "smallness_check",
]


class DecompositionGraph(Record):
    """Bipartite graph over the generator indices used by the two witnesses.

    ``left`` and ``right`` are tuples of the generator indices each witness
    uses, and ``edges`` is the sorted tuple of (left index, right index)
    pairs whose tetris images share support.
    """

    __slots__ = ("left", "right", "edges")

    def __init__(self, left, right, edges):
        _setattr(self, "left", left)
        _setattr(self, "right", right)
        _setattr(self, "edges", edges)

    def is_connected(self):
        if not self.left:
            return len(self.right) <= 1
        return self._covers(self.component_of_left(self.left[0]))

    def _covers(self, component):
        """True when a (left set, right set) component holds every vertex."""
        left, right = component
        return len(left) == len(self.left) and len(right) == len(self.right)

    def component_of_left(self, vertex):
        """Vertices reachable from the left vertex, as (left set, right set)."""
        by_left = {}
        by_right = {}
        for i, j in self.edges:
            by_left.setdefault(i, []).append(j)
            by_right.setdefault(j, []).append(i)
        seen_left, seen_right = {vertex}, set()
        frontier = [("L", vertex)]
        while frontier:
            side, v = frontier.pop()
            neighbours = by_left.get(v, ()) if side == "L" else by_right.get(v, ())
            for w in neighbours:
                if side == "L":
                    if w not in seen_right:
                        seen_right.add(w)
                        frontier.append(("R", w))
                else:
                    if w not in seen_left:
                        seen_left.add(w)
                        frontier.append(("L", w))
        return frozenset(seen_left), frozenset(seen_right)

    def render_lines(self):
        return [f"L{i} - R{j}" for i, j in self.edges]


def decomposition_graph(block, left_witness, right_witness, left, right):
    """Build the bipartite support-overlap graph of one common block.

    Both witnesses are rechecked first (``check_witness``).  Once they
    pass, supports being ordered, each side's term images are consecutive
    runs of the block's pairs, in term order, and every run is nonempty: a
    block keeps its peak below exponent k.  A term's run ends where the
    block's pairs pass its generator's window.  Two terms share support
    exactly when their runs overlap, so one merge of the two lists of run
    ends emits each edge once, already sorted: the pair of runs holding
    the current pair is an edge, and the run that ends first (both, when
    they end together) gives way to the next.
    """
    check_witness(left, left_witness, block)
    check_witness(right, right_witness, block)
    pairs = block.pairs
    lterms, rterms = left_witness.terms, right_witness.terms
    lends = [bisect_left(pairs, (left.blocks[i].pairs[-1][0] + 1,)) for i, _ in lterms]
    rends = [bisect_left(pairs, (right.blocks[j].pairs[-1][0] + 1,)) for j, _ in rterms]
    edges = []
    a = b = 0
    while a < len(lends) and b < len(rends):
        edges.append((lterms[a][0], rterms[b][0]))
        lend, rend = lends[a], rends[b]
        a += lend <= rend
        b += rend <= lend
    return DecompositionGraph(left_witness.indices, right_witness.indices, tuple(edges))


def is_intertwined(block, left_witness, right_witness, left, right):
    """True when the decomposition graph of the common block is connected."""
    return decomposition_graph(block, left_witness, right_witness, left, right).is_connected()


class ExtractionResult(Record):
    """An intertwined common block plus the minimal prefix length used.

    ``prefix_length`` is an int and ``element`` the CommonElement.
    """

    __slots__ = ("prefix_length", "element")

    def __init__(self, prefix_length, element):
        _setattr(self, "prefix_length", prefix_length)
        _setattr(self, "element", element)


def _suffix_split(witness, kept_indices):
    kept, dropped = [], []
    for term in witness.terms:
        (kept if term[0] in kept_indices else dropped).append(term)
    return tuple(kept), tuple(dropped)


def settle_intertwined(element, left, right):
    """Split a common element until its decomposition graph is connected.

    Repeatedly takes the connected component of the rightmost left-side
    generator (an upward-closed set of witness indices on both sides) and
    keeps that part.  A discarded part attaining k raises
    MinimalityViolation: whenever the element came from a minimal prefix,
    such a part would be a common block over a shorter prefix.
    """
    block = element.block
    left_w, right_w = element.left_witness, element.right_witness
    for _ in range(len(left_w.terms) + len(right_w.terms) + 1):
        graph = decomposition_graph(block, left_w, right_w, left, right)
        component = graph.component_of_left(max(graph.left))
        if graph._covers(component):
            return CommonElement(block, left_w, right_w)
        comp_left, comp_right = component
        # anything but an upward-closed component falsifies the split rule
        if comp_left != {i for i in graph.left if i >= min(comp_left)} or comp_right != {
            j for j in graph.right if j >= min(comp_right)
        }:
            raise ClaimViolation("split component is not upward-closed")
        kept_l, dropped_l = _suffix_split(left_w, comp_left)
        kept_r, dropped_r = _suffix_split(right_w, comp_right)
        dropped_block = evaluate(left, Combination(dropped_l, starred=True))
        if dropped_block != evaluate(right, Combination(dropped_r, starred=True)):
            raise ClaimViolation("discarded parts of the two witnesses disagree")
        if dropped_block.is_block:
            raise MinimalityViolation(
                f"discarded part {dropped_block.render()} attains {dropped_block.k}"
            )
        # the kept part holds every full-value position, so its minimal
        # exponent is 0 on both sides and it stays a span member
        left_w = Combination(kept_l, starred=False)
        right_w = Combination(kept_r, starred=False)
        block = evaluate(left, left_w)
        if block != evaluate(right, right_w):
            raise ClaimViolation("kept parts of the two witnesses disagree")
    raise ClaimViolation("splitting failed to terminate")


def extract_intertwined(left, right):
    """Produce an intertwined block in the intersection of the two spans.

    One sweep gives the minimal prefix of ``left`` whose span meets
    ``right``'s span, and one sweep over that prefix, ordered by value,
    gives in its forward pass the least common block in canonical order
    (lexicographic on the value vector), which is settled with the
    component-split rule.  Neither sweep records its moves.  Raises
    NoIntersection when the full spans are disjoint; MinimalityViolation
    from the split would contradict the minimality of the prefix.
    """
    sweep = _sweeping()
    length = sweep._Sweep(left, right).prefix_length
    if length is None:
        raise NoIntersection(f"no common block among {len(left)} generators")
    prefix = left.prefix(length)
    element = sweep._Sweep(prefix, right, order="value").least
    return ExtractionResult(length, settle_intertwined(element, prefix, right))


def star_split(anchor, other, left, right):
    """Split ``star(anchor, other)`` around the intertwined anchor.

    Both arguments are CommonElements over the same two sequences.  Returns
    ``(below, above)`` with ``below < anchor < above``, both lying in the
    starred spans of both sequences, and
    ``add(add(below, anchor.block), above) == star(anchor.block, other.block)``.
    """
    graph = decomposition_graph(
        anchor.block, anchor.left_witness, anchor.right_witness, left, right
    )
    check_witness(left, other.left_witness, other.block)
    check_witness(right, other.right_witness, other.block)
    if not graph.is_connected():
        raise NotIntertwined(f"anchor {anchor.block.render()} is not intertwined")

    p = anchor.block
    merged = star(p, other.block)
    window = merged.restrict_above(p.min_support - 1).restrict_below(p.max_support + 1)
    if window != p:
        # star is pointwise at least p, so every disagreement is in window
        pos, v = next((pos, v) for pos, v in window.pairs if v != p.value_at(pos))
        raise ClaimViolation(
            f"star disagrees with the anchor at position {pos}: {v} != {p.value_at(pos)}"
        )
    below = merged.restrict_below(p.min_support)
    above = merged.restrict_above(p.max_support)
    if add(add(below, p), above) != merged:
        raise ClaimViolation("window split does not reassemble the star")
    if not (below.before(p) and p.before(above)):
        raise ClaimViolation("window split violates the block order")
    for part, name in ((below, "below"), (above, "above")):
        if part.is_empty:
            continue  # the empty subblock is a starred-span member vacuously
        for seq, side in ((left, "left"), (right, "right")):
            if membership_witness(part, seq, starred=True) is None:
                raise ClaimViolation(
                    f"{name} part {part.render()} missing from the {side} starred span"
                )
    return below, above


class SmallnessCertificate(Record):
    """Outcome of the horizon emptiness probe behind the smallness criterion.

    ``verdict`` is the string ``empty_at_horizon`` or ``nonempty``.  The
    first certifies that after dropping ``tail_index`` (an int) blocks
    from the left stream, the two truncated spans share nothing below
    ``horizon`` (an int); ``witness`` carries a CommonElement when the
    verdict is ``nonempty`` and is None otherwise, its left witness
    indexing the whole left truncation (every index at least
    ``tail_index``).
    """

    __slots__ = ("tail_index", "horizon", "verdict", "witness")

    def __init__(self, tail_index, horizon, verdict, witness=None):
        _setattr(self, "tail_index", tail_index)
        _setattr(self, "horizon", horizon)
        _setattr(self, "verdict", verdict)
        _setattr(self, "witness", witness)

    def render(self):
        return f"small? n={self.tail_index} H={self.horizon} verdict={self.verdict}"


def _tail_certificate(left, right, tail_index, horizon):
    """The smallness certificate of two truncations at the horizon.

    Supports strictly increase, so the left tail from block n on is the
    sequence ``left.blocks[n:]``, whose span meets ``right``'s exactly when
    one plain sweep of the two finds a common element.  An empty verdict
    takes that one sweep; only a nonempty one adds a second
    (``_nonempty_certificate``).  Neither records its moves, so memory
    does not grow with the horizon.
    """
    tail = BlockSequence._trusted(left.k, left.blocks[tail_index:])
    if not _sweeping()._Sweep(tail, right).count:
        return SmallnessCertificate(tail_index, horizon, "empty_at_horizon")
    return _nonempty_certificate(left, right, tail_index, horizon)


def _nonempty_certificate(left, right, tail_index, horizon):
    """The certificate of a left tail known to meet ``right``.

    Its witness is the common element with the least left witness over the
    tail, from one sweep ordered by left witness, whose forward pass keeps
    the least witness reaching each state.  Shifting every index of that
    witness by the tail index keeps its order and indexes it over the
    whole of ``left``, where it is re-evaluated.
    """
    tail = BlockSequence._trusted(left.k, left.blocks[tail_index:])
    least = _sweeping()._Sweep(tail, right, order="witness").least
    shifted = Combination(tuple((g + tail_index, e) for g, e in least.left_witness.terms))
    check_witness(left, shifted, least.block)
    witness = CommonElement(least.block, shifted, least.right_witness)
    return SmallnessCertificate(tail_index, horizon, "nonempty", witness=witness)


def smallness_check(left_stream, right_stream, tail_index, horizon):
    """Probe whether the left tail's span misses the right span at the horizon.

    A negative horizon, whose truncations are empty, is refused first."""
    if tail_index < 0:
        raise ValueError(f"tail index must be nonnegative, got {tail_index}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    return _tail_certificate(
        left_stream.truncate(horizon), right_stream.truncate(horizon), tail_index, horizon
    )
