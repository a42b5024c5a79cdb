"""The position sweep: every question about two spans at once.

A question about the common elements of two spans (their count, listing,
valuation F, minimal meeting prefix, the last tail that meets the other
span, the last generator used at exponent 0) is one forward pass over both
sequences' support positions that folds every answer (``_Sweep``).
Whether the spans meet, and their least element by value or by left
witness, come from a lighter pass (``_Reach``) that keeps only which states
each position reaches, so those questions never build the path count,
which at long horizons has tens of thousands of bits.  Both take their
moves from one table per level, which joins both sides' choices on value
and holds only the entries sweeps have met; it interns states, each
position's pair of steps and the sets of states the lighter pass reaches
as small ints, so a state's moves are one list indexing and one dict
lookup away, and where the sets recur a position of the lighter pass costs
one lookup.  A fold resumed from an earlier one over a prefix of the left
sequence shares that fold's kept layer instead of copying it, since a fold
writes only the layer it builds and holds generator indices.  A pass skips
whole every generator window ``[min_support, max_support]`` that holds no
support position of the other side: used at exponent e < k, the generator
keeps the value k - e >= 1 at its peak, where the other side's value is 0,
so it can only be unused.  Its steps come from one index walk over both
sides' blocks, which bisects them on their pairs to start and to skip a
run of windows, so its cost is polynomial in the positions where both
sides' windows meet, plus one step per run of windows skipped (a run
ends where the other side's next position lies: windows that interleave
with the other side's are skipped one at a time), plus a set-up that
follows the windows around its start.  A path's witness terms are one
immutable cell per move that uses a generator, read off only for an
element it hands out.  That element is built in one frame: its block
joins its left terms' tetris images in one loop, its records are filled
through their slot setters, and its right witness is re-evaluated against
the block (``span.check_witness``).

The sweep is loaded on the first two-span question, so a command that asks
only about one span never compiles it: ``span.intersect_spans``,
``span.first_common_element`` and the sweeping functions of ``structure``
load it when called, through ``span._sweeping``, and ``diagonal``, every
step of which sweeps, imports it at its top.
"""

import math
import sys
from array import array
from bisect import bisect_left
from operator import itemgetter

from .blocks import Subblock, _set_k, _set_pairs, peak, tetris
from .errors import EnumerationCapExceeded, MismatchedLevel, WitnessMismatch
from .span import _PAIRS, Combination, CommonElement, HorizonValuation, _filled_valuation, _new
from .span import _set_starred, _set_terms, check_witness

# a position sweep's choice for a generator it does not use
_UNUSED = -1

# before the first position: no window open, no exponent 0 seen on either side
_START = (None, False, None, False)
# above every generator index: a layer entry's least index on a side that
# no path reaching the state has used yet (no sequence is longer)
_NO_INDEX = sys.maxsize
# below every layer entry's peak position, which is -1 at the least
_NO_PEAK = (None, -2)

_set_block, _set_left_witness, _set_right_witness = CommonElement._setters


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
    """A level's sweep moves and the lighter pass's sets, between states,
    pairs of steps and sets interned as small ints.

    A state gets the next id the first time a move reaches it, and the
    start state has id 0; per id, ``states`` holds the state, ``accepts``
    whether both sides saw exponent 0 (the state accepts) and ``zeros``
    whether its left choice is 0.  A position's ``(left step, right
    step)`` gets its id from ``pair``.  ``rows[pair id]`` maps a state id
    to the legal moves ``(new state id, value, left generator used, right
    generator used)`` once ``join`` has built them: the left side's
    choices in order and, for each, the right side's choices of the same
    value in order (``_side_moves`` gives the steps' shapes).  The two
    sides are joined on value, so an entry costs its own moves plus one
    pass over each side's choices.

    ``name`` gives ids to the sets of states a ``_Reach`` meets (layers,
    pairs of them, and a walked position's stride ``(gap from the
    position before, steps id, layer after)``); the start layer ``{0}``
    has id 0.  ``nexts[pair id]`` maps a layer to the one after the steps
    (``step``), and ``backs``, ``leasts`` and ``picks`` memoize the passes
    of the same names.

    An entry is built the first time a sweep needs it and kept for every
    later sweep at the level, so the table grows with the states, steps
    and sets sweeps meet, not with their positions; ``entries`` counts
    them, and ``_joins`` bounds it.  Ids are never given again, so a layer
    keyed by them holds for every later sweep at the level.
    """

    def __init__(self, k):
        # a start at a small value on both sides joins about (k+1)^2 moves
        # of value 0, and the states they reach grow with k
        if (k + 1) ** 2 > 2**22:
            raise EnumerationCapExceeded(f"level {k} needs {(k + 1) ** 2} sweep moves, cap is 2^22")
        self.k, self.entries = k, 0
        self.state_ids, self.states, self.accepts, self.zeros = {}, [], [], []
        self.pair_ids, self.pairs, self.rows, self.nexts = {}, [], [], []
        self.name_ids, self.names, self.backs, self.leasts, self.picks = {}, [], {}, {}, {}
        self.intern(_START)
        self.name(frozenset((0,)))

    def intern(self, state):
        """The id of ``state``, given the first time it is met."""
        sid = self.state_ids.get(state)
        if sid is None:
            sid = self.state_ids[state] = len(self.states)
            self.states.append(state)
            self.accepts.append(state[1] and state[3])
            self.zeros.append(state[0] == 0)
        return sid

    def pair(self, steps):
        """The id of ``steps``, a ``(left step, right step)``, given the
        first time it is met."""
        pid = self.pair_ids.get(steps)
        if pid is None:
            pid = self.pair_ids[steps] = len(self.pairs)
            self.pairs.append(steps)
            self.rows.append({})
            self.nexts.append({})
        return pid

    def name(self, value):
        """The id of ``value``, given the first time it is met."""
        got = self.name_ids.get(value)
        if got is None:
            got = self.name_ids[value] = len(self.names)
            self.names.append(value)
            self.entries += 1
        return got

    def join(self, sid, pid):
        """The moves from state ``sid`` at steps ``pid``, built and kept."""
        (lstep, rstep), (cl, zl, cr, zr) = self.pairs[pid], self.states[sid]
        right = {}
        for c2, v, rused in _side_moves(rstep, cr, self.k):
            right.setdefault(v, []).append((c2, rused))
        moves = self.rows[pid][sid] = tuple(
            (self.intern((c1, zl or c1 == 0, c2, zr or c2 == 0)), v, lused, rused)
            for c1, v, lused in _side_moves(lstep, cl, self.k)
            for c2, rused in right.get(v, ())
        )
        self.entries += 1
        return moves

    def moves(self, sid, pid):
        """The moves from state ``sid`` at steps ``pid``."""
        moves = self.rows[pid].get(sid)
        return self.join(sid, pid) if moves is None else moves

    def step(self, lid, pid):
        """The id of the layer after layer ``lid`` at steps ``pid``, built
        and kept (a pass reads ``nexts`` first)."""
        reached = frozenset(new for sid in self.names[lid] for new, *_ in self.moves(sid, pid))
        got = self.nexts[pid][lid] = self.name(reached)
        self.entries += 1
        return got

    def back(self, lid, pid, cid):
        """The id of the co-value before steps ``pid`` from layer ``lid``
        there and co-value ``cid`` after.  A co-value is a pair of state
        sets: the live states, from which some path accepts, and the quiet
        ones, from which one accepts using no further left generator, so a
        move from the layer into a live state lies on an accepting path.
        Built and kept (a pass reads ``backs`` first)."""
        (live, quiet), lives, quiets = self.names[cid], set(), set()
        for sid in self.names[lid]:
            for new, _, lused, _ in self.moves(sid, pid):
                if new in live:
                    lives.add(sid)
                if new in quiet and not lused:
                    quiets.add(sid)
        got = self.backs[lid, pid, cid] = self.name((frozenset(lives), frozenset(quiets)))
        self.entries += 1
        return got

    def least(self, mid, pid, cid, mode):
        """From the states ``mid`` before steps ``pid``, with co-value
        ``cid`` after: the id of the states that the least live moves by
        ``mode`` reach, and the mode after.

        Where a left generator opens, a move ranks by the choice it makes
        there: by "value", unused first, then the exponents from k - 1 down
        to 0; by "witness", unused into a quiet state first, which ends
        the witness (the mode becomes "ended"), then the exponents up from
        0, then unused.  Elsewhere every live move ranks alike.  Once the
        witness has ended, only moves into quiet states that use no left
        generator count.  Built and kept (a pass reads ``leasts`` first)."""
        (live, quiet), k, ranked = self.names[cid], self.k, {}
        opens = self.pairs[pid][0].__class__ is tuple
        for sid in self.names[mid]:
            for y, _, lused, _ in self.moves(sid, pid):
                choice = self.states[y][0]
                if mode == "ended" or opens and mode == "witness" and choice < 0 and y in quiet:
                    rank = -1 if y in quiet and not lused else None
                elif y not in live:
                    rank = None
                elif not opens:
                    rank = 0
                elif mode == "witness":
                    rank = k if choice < 0 else choice
                else:
                    rank = 0 if choice < 0 else k - choice
                if rank is not None:
                    ranked.setdefault(rank, set()).add(y)
        rank = min(ranked)
        reached = self.name(frozenset(ranked[rank]))
        got = self.leasts[mid, pid, cid, mode] = reached, "ended" if rank < 0 else mode
        self.entries += 1
        return got

    def pick(self, lid, pid, y):
        """The least state of layer ``lid`` with a move to state ``y`` at
        steps ``pid``, and whether the move uses a generator.  Built and
        kept (a pass reads ``picks`` first)."""
        got = self.picks[lid, pid, y] = min(
            (sid, lused or rused)
            for sid in self.names[lid]
            for new, _, lused, rused in self.moves(sid, pid)
            if new == y
        )
        self.entries += 1
        return got


_JOINS = {}  # per level, its ``_Joins``, the least recently used first
# a fresh sweep starts a new table for its level once the level's holds
# more entries than this, and the process keeps this many levels' tables
_MAX_ENTRIES = 1 << 16
_MAX_LEVELS = 8


def _joins(k):
    """The level's table for a fresh sweep, made by its level's first.

    The process keeps at most ``_MAX_LEVELS`` tables, dropping the least
    recently used, and a fresh sweep that finds its level's table holding
    more than ``_MAX_ENTRIES`` entries starts a new one, so between fresh
    sweeps the tables hold at most ``_MAX_LEVELS`` times that many entries
    plus what one sweep adds.  A resumed sweep keeps its kept sweep's
    table, whose ids its kept layer holds, so a chain of resumed sweeps
    may grow one table past the bound until the next fresh sweep replaces
    it; a dropped table lives on only in the sweeps that hold it."""
    joins = _JOINS.pop(k, None)
    if joins is None or joins.entries > _MAX_ENTRIES:
        joins = _Joins(k)
    _JOINS[k] = joins
    if len(_JOINS) > _MAX_LEVELS:
        del _JOINS[next(iter(_JOINS))]
    return joins


def _reaching(blocks, lo, hi, pos, force):
    """The first index in ``[lo, hi)`` whose window reaches ``pos`` or
    whose generator ``force`` fixes, else ``hi``: windows are disjoint and
    ordered, so the first one that starts past ``pos`` is found by
    bisection on the pairs, and the one before it may reach ``pos``."""
    g = bisect_left(blocks, ((pos + 1,),), lo, hi, key=_PAIRS)
    if g > lo and blocks[g - 1].pairs[-1][0] >= pos:
        g -= 1
    return min((h for h in force if lo <= h < g), default=g)


def _sweep_steps(left, right, force, walked, joins):
    """Per position a sweep walks, ascending, ``(pos, left generator
    opened, steps id, right generator opened)``, from one index walk over
    both sides' ``blocks[g].pairs``, the steps id being the id in ``joins``
    of ``(left step, right step)``.  A side's step is plain data, which
    ``_Joins`` turns into moves: None outside every window, the value
    v inside an open window (0 off its support), and ``(v, forced)`` where
    a generator's support starts, ``forced`` being the one choice ``force``
    allows or None.  A side opens its generator only at such a start; the
    generator opened is None elsewhere.

    The positions lie inside the hull of the left windows, widened to
    every right window it cuts: outside it every left value is 0, so every
    right generator whose window misses it is unused.  A resumed sweep
    starts past its kept layer's position ``walked``, with each side's
    window that straddles it already open.

    Each side's walk holds a generator and an index into its pairs, and
    moves to the next generator past its window's last pair.  A pairs
    tuple orders as its window's start does, so the right blocks are
    bisected on their pairs (C-level key, no frame per probe) for the
    windows that start by the hull's end and, in a fresh sweep, for those
    that start before its first position.  From there each side walks
    back over the windows that reach the start, and a bisection of the
    first one's pairs finds the first position at or past it.  So a
    resumed sweep's set-up follows the windows around its start, not the
    lengths of the sequences.

    Inside the hull, a window ``[min_support, max_support]`` that holds no
    support position of the other side is skipped whole, unless ``force``
    fixes its left generator: used at exponent e < k, the generator keeps
    the value k - e >= 1 at its peak, where the other side's value is 0,
    so only "unused" survives it.  At its positions the other side is off
    its support, so its step (0 or None) gives the value 0 and no answer
    moves; the skipped side keeps a stale choice, which the next opening
    overwrites or the next step outside every window maps to None.  Every
    window up to the first that reaches the other side's next position, or
    that ``force`` fixes, is skipped at once (``_reaching``): the walk
    steps past the last pair of the window before it.  The hull is the
    outer case of the same rule.
    """
    blocks, others = left.blocks, right.blocks
    if not blocks:
        return
    pair = joins.pair
    lstop = len(blocks)
    hi = blocks[-1].pairs[-1][0]
    # the right windows that start at or before ``hi``
    rstop = bisect_left(others, ((hi + 1,),), key=_PAIRS)
    if walked is None:
        lg, lo = 0, blocks[0].pairs[0][0]
        # the right windows that start before ``lo``
        rg = bisect_left(others, ((lo,),), 0, rstop, key=_PAIRS)
    else:
        lg, lo = lstop, walked + 1
        rg = rstop
    # each side walks from its first window that reaches ``lo``: windows
    # end in order, so the walk back from a bound ends before the first
    # window that ends before ``lo``
    while rg and others[rg - 1].pairs[-1][0] >= lo:
        rg -= 1
    if rg < rstop:
        hi = max(hi, others[rstop - 1].pairs[-1][0])
        if walked is None:
            lo = min(lo, others[rg].pairs[0][0])
    while lg and blocks[lg - 1].pairs[-1][0] >= lo:
        lg -= 1
    # per side: the generator walked, its pairs, the index of the current
    # pair and that pair (position inf past the last window), each side
    # starting one pair before its first position at or past ``lo``; the
    # open generator, the one opened at the current position and the open
    # window's last position
    lpairs = blocks[lg].pairs if lg < lstop else ()
    rpairs = others[rg].pairs if rg < rstop else ()
    li, ri = bisect_left(lpairs, (lo,)) - 1, bisect_left(rpairs, (lo,)) - 1
    la = ra = pos = -1
    lopen = ropen = lopened = ropened = None
    lend = rend = -1
    if li >= 0:
        lopen, lend = lg, lpairs[-1][0]
    if ri >= 0:
        ropen, rend = rg, rpairs[-1][0]
    while True:
        # a side at the position last stepped past moves to its next pair,
        # and past its window's last pair to the next generator
        if la == pos:
            li += 1
            if li < len(lpairs):
                la, lv = lpairs[li]
            elif lg + 1 < lstop:
                lg += 1
                lpairs, li = blocks[lg].pairs, 0
                la, lv = lpairs[0]
            else:
                la = math.inf
        if ra == pos:
            ri += 1
            if ri < len(rpairs):
                ra, rv = rpairs[ri]
            elif rg + 1 < rstop:
                rg += 1
                rpairs, ri = others[rg].pairs, 0
                ra, rv = rpairs[0]
            else:
                ra = math.inf
        pos = la if la < ra else ra
        if pos > hi:
            return
        if la != pos:
            lstep = 0 if pos < lend else None
        elif lg == lopen:
            lstep = lv
        else:
            # the next right position lies past the window: skip it and the
            # run after it unless ``force`` fixes its choice, stepping past
            # the last pair before the first window not skipped
            end = lpairs[-1][0]
            forced = force.get(lg)
            if ra > end and forced is None:
                if lg + 1 < lstop and blocks[lg + 1].pairs[-1][0] < ra:
                    lg = _reaching(blocks, lg + 1, lstop, ra, force) - 1
                    lpairs = blocks[lg].pairs
                li = len(lpairs) - 1
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
            end = rpairs[-1][0]
            if la > end:
                if rg + 1 < rstop and others[rg + 1].pairs[-1][0] < la:
                    rg = _reaching(others, rg + 1, rstop, la, ()) - 1
                    rpairs = others[rg].pairs
                ri = len(rpairs) - 1
                continue
            ropen, rend, ropened = rg, end, rg
            rstep = rv, None
        yield pos, lopened, pair((lstep, rstep)), ropened
        lopened = ropened = None


class _Sweep:
    """Every question about the common elements of two spans, in one pass.

    The sweep walks both sequences' support positions inside the hull of
    the left windows (``_sweep_steps``), skipping every window that holds
    no support position of the other side: its generator keeps the value
    k - e >= 1 at its peak when used at exponent e, where the other side's
    value is 0, so it can only be unused, and no answer moves at its
    positions.  Supports are ordered, so on each side at most one
    generator window ``[min_support, max_support]`` holds a position, and
    that generator's choice (unused or an exponent) is fixed where its
    support starts.  A state is ``(left choice, left saw exponent 0, right
    choice, right saw exponent 0)``, the choice being None outside every
    window, so there are at most 4(k+2)^2 states; a move is legal only
    where both sides give the same value.  A state's moves at a position
    come from the level's table (``_Joins``), keyed by the state and both
    sides' steps and joined on value, so a sweep builds only the moves it
    meets and every sweep at the level shares them.  The table interns
    states and pairs of steps as small ints: a layer is keyed by state id,
    each position carries its steps' id, and a state's moves are
    ``rows[steps id][state id]``.  Witnesses are unique, so the accepting
    paths match the common elements one to one.  After the last position,
    one pass over the layer reads every answer off its accepting states.

    ``force`` maps left generator indices to a fixed choice, unused or one
    exponent, and its windows are never skipped.  The forward pass folds,
    per state and move by move, the number of paths, the largest last
    position of value k (with the terms of a path attaining it: when
    several do, the fold order over the positions walked picks one), the
    smallest largest left index used, the largest least index used on each
    side (above every index before a side's first use) and the largest
    left index used at exponent 0: ``count``, ``peak`` (the valuation F)
    with ``peak_element``, ``prefix_length``, ``tail_reach`` and
    ``last_zero``.  ``tail_reach[0]`` is the largest n whose left tail
    ``left.blocks[n:]`` still meets the right span, -1 when the spans are
    disjoint, and ``tail_reach[1]`` the same for the right; ``last_zero``
    is the largest left generator some common element uses at exponent 0,
    or -1.

    Only ``walk``, for listing (``elements``), keeps every step's moves, so
    otherwise memory does not grow with the positions.  A path's witness
    terms grow as a chain of cells (``_element`` reads them), one per move
    that uses a generator opened there; an element handed out builds its
    block from its left terms' tetris images and re-evaluates the right
    witness.  Whether the spans meet and their least element are
    ``_Reach``'s, which counts no paths.

    A sweep without ``walk`` keeps one layer, the states after its last
    walked position at or below ``left``'s last ``max_support``, which a
    sweep over a longer left sequence shares: its later blocks start past
    that position, a left window skipped before it is skipped again, and a
    right window that reaches past it holds ``left``'s last position, so
    it is never skipped.  (The hull's last layer is not kept: a right
    window can widen the hull past it, into the next left block.)
    ``resume`` takes such a sweep over a prefix of ``left`` against the
    same ``right``, with ``force`` agreeing on the prefix, and walks only
    the positions past its kept layer, with the right windows that
    straddle it already open.  It starts from the kept layer itself, not a
    copy: the fold writes only to the layer it builds, and every fold holds
    generator indices, which mean the same in the longer sequence, so no
    sweep writes to or clears a layer another one holds.  So its set-up
    grows with the positions it walks, and it takes its kept sweep's last
    rechecked peak element, which ``peak_element`` hands out again while
    the peak path holds the same chain at the same F, and its kept
    sweep's table (``_joins``), whose ids its kept layer holds.
    """

    def __init__(self, left, right, force=None, walk=False, resume=None):
        if left.k != right.k:
            raise MismatchedLevel(f"levels {left.k} and {right.k}")
        self.left, self.right, self.k = left, right, left.k
        force = force or {}
        k = self.k
        self._joins = joins = _joins(k) if resume is None else resume._joins
        rows, zeros = joins.rows, joins.zeros
        # with ``walk``, per step: the left generator opened there, or
        # None, and the right one; then (state id, moves) per state before it
        self.opened = [] if walk else None
        self.moves = [] if walk else None
        # per state id of the current layer: [paths, last position of value k,
        # the cell chain of a path attaining it (None before its first
        # cell), largest left index used, least left index used, least
        # right index used, largest left index used at exponent 0], -1
        # standing for "none yet" and ``_NO_INDEX`` for a side not used
        # yet; earlier layers are not kept, so the path counts, which grow
        # to big integers, are not stored
        walked, layer = None, {0: [1, -1, None, -1, _NO_INDEX, _NO_INDEX, -1]}
        # the last rechecked peak element's chain, its F and itself
        self._rechecked = None if resume is None else resume._rechecked
        if resume is not None:
            walked, layer = resume._kept
        kept_pos, kept_layer = walked, layer
        boundary = left.blocks[-1].pairs[-1][0] if left.blocks else -1
        for pos, lg, pid, rg in _sweep_steps(left, right, force, walked, joins):
            nxt = {}
            seen = []
            row = rows[pid]
            for sid, (paths, top, chain, last, lleast, rleast, zero) in layer.items():
                moves = row.get(sid)
                if moves is None:
                    moves = joins.join(sid, pid)
                if walk:
                    seen.append((sid, moves))
                for new, v, lused, rused in moves:
                    new_top = pos if v == k else top
                    if lused:
                        # generators are used in increasing order, so a
                        # side's least index is the one it used first
                        new_last, new_zero = lg, lg if zeros[new] else zero
                        new_lleast = lg if lleast > lg else lleast
                    else:
                        new_last, new_zero, new_lleast = last, zero, lleast
                    new_rleast = rg if rused and rleast > rg else rleast
                    held = nxt.get(new)
                    if held is None:
                        # a chain grows only when a witness gains a term
                        grown = (chain, lg, rg, new) if lused or rused else chain
                        nxt[new] = [
                            paths, new_top, grown, new_last, new_lleast, new_rleast, new_zero
                        ]
                    else:
                        held[0] += paths
                        if new_top > held[1]:
                            held[1] = new_top
                            held[2] = (chain, lg, rg, new) if lused or rused else chain
                        if new_last < held[3]:
                            held[3] = new_last
                        if new_lleast > held[4]:
                            held[4] = new_lleast
                        if new_rleast > held[5]:
                            held[5] = new_rleast
                        if new_zero > held[6]:
                            held[6] = new_zero
            layer = nxt
            if pos <= boundary:
                kept_pos, kept_layer = pos, layer
            if walk:
                self.opened.append((lg, rg))
                self.moves.append(seen)
        self._kept = kept_pos, kept_layer
        # one pass over the accepting states, in layer order: the first
        # one with the largest peak position is the peak entry; every
        # accepting path has used both sides, so no least index read here
        # is ``_NO_INDEX``
        self.accepting = accepting = []
        count = 0
        best, least_last = _NO_PEAK, math.inf
        lreach = rreach = last_zero = -1
        accepts = joins.accepts
        for sid, held in layer.items():
            if accepts[sid]:
                accepting.append(sid)
                count += held[0]
                if held[1] > best[1]:
                    best = held
                if held[3] < least_last:
                    least_last = held[3]
                if held[4] > lreach:
                    lreach = held[4]
                if held[5] > rreach:
                    rreach = held[5]
                if held[6] > last_zero:
                    last_zero = held[6]
        self.count = count
        self.tail_reach = lreach, rreach
        self.last_zero = last_zero
        self.peak = self.prefix_length = None
        if accepting:
            self.peak, self._peak_chain = best[1], best[2]
            self.prefix_length = least_last + 1

    def _element(self, chain):
        """The common element of a path's chain of cells ``(rest, left
        generator opened, right generator opened, state id entered)``,
        walked either way, its right witness re-evaluated.  Per side, a
        term is the generator where it opened, with the state's choice on
        that side if that is an exponent."""
        states, left_terms, right_terms = self._joins.states, [], []
        while chain is not None:
            chain, lg, rg, sid = chain
            cl, _, cr, _ = states[sid]
            if lg is not None and cl >= 0:
                left_terms.append((lg, cl))
            if rg is not None and cr >= 0:
                right_terms.append((rg, cr))
        # generators differ, and a forward walk's chain holds them
        # descending, which sorting reverses in one pass
        left_terms, right_terms = tuple(sorted(left_terms)), tuple(sorted(right_terms))
        blocks, pairs = self.left.blocks, []
        for g, e in left_terms:
            pairs += tetris(blocks[g], e).pairs
        block, left, right = _new(Subblock), _new(Combination), _new(Combination)
        _set_k(block, self.k)
        _set_pairs(block, tuple(pairs))
        _set_terms(left, left_terms)
        _set_starred(left, False)
        _set_terms(right, right_terms)
        _set_starred(right, False)
        element = _new(CommonElement)
        _set_block(element, block)
        _set_left_witness(element, left)
        _set_right_witness(element, right)
        check_witness(self.right, right, block)
        return element

    def elements(self):
        """Every common element, in no particular order.

        Walks the moves backward from the accepting states: every recorded
        state is reachable from the start, so no partial path dies.
        """
        suffixes = {sid: [None] for sid in self.accepting}
        for i in range(len(self.moves) - 1, -1, -1):
            lg, rg = self.opened[i]
            before = {}
            for sid, moves in self.moves[i]:
                for new, _, lused, rused in moves:
                    found = suffixes.get(new)
                    if found is None:
                        continue
                    if lused or rused:
                        found = [(chain, lg, rg, new) for chain in found]
                    before.setdefault(sid, []).extend(found)
            suffixes = before
        return [self._element(chain) for chain in suffixes.get(0, ())]

    def peak_element(self):
        """The recorded element attaining F, both witnesses re-evaluated.

        A resumed sweep whose peak path holds the very chain of the element
        its kept sweep rechecked last, at the same F, hands that element out
        again without decoding it: cells are never changed, and a state id
        names the same state at the level forever, so the chain holds the
        same terms, which name the same blocks in both sweeps.
        """
        chain = self._peak_chain
        held = self._rechecked
        if held is not None and held[0] is chain and held[1] == self.peak:
            return held[2]
        element = self._element(chain)
        check_witness(self.left, element.left_witness, element.block)
        if peak(element.block) != self.peak:
            raise WitnessMismatch(
                f"element {element.block.render()} does not attain F={self.peak}"
            )
        self._rechecked = chain, self.peak, element
        return element

    def valuation(self, horizon):
        """F over the common elements, backed by its rechecked element."""
        if self.count:
            self.peak_element()
        return _filled_valuation(_new(HorizonValuation), self.peak, horizon, self.count)


class _Reach:
    """Whether two spans meet, and their least common element, from one
    forward pass that keeps only which states each position reaches.

    The pass walks the same positions as ``_Sweep``, from the same states
    and moves, but a layer is the set of states reached, interned in the
    level's table, and the layer after a position is the memo
    ``nexts[steps id][layer id]``, shared by every pass at the level, so
    where layers recur a position costs one lookup and no path is counted.
    It keeps its trail, one stride id per position walked.  ``empty`` tells
    whether no state of the last layer accepts.

    ``least`` takes one pass back over the trail for each position's
    co-value (``_Joins.back``), a greedy pass forward keeping the states
    that the least live moves so far reach (``_Joins.least``), and one path
    back through them, a state per position (``_Joins.pick``), all
    memoized in the level's table.  Every value follows from the choice
    made where a left window starts (0 outside every window), and T^e(p)
    decreases lexicographically in e and stays above the zero vector; a
    witness that ends is less than every one that goes on.  A skipped left
    window is unused on every path, so it ranks nothing.
    """

    _element = _Sweep._element

    def __init__(self, left, right, force=None):
        if left.k != right.k:
            raise MismatchedLevel(f"levels {left.k} and {right.k}")
        self.left, self.right, self.k = left, right, left.k
        self._joins = joins = _joins(self.k)
        nexts, named, name = joins.nexts, joins.name_ids, joins.name
        # per position walked, the id of its stride ``(gap from the
        # position before, steps id, layer after)``, one byte each while
        # the ids fit
        trail, lid, pos = array("B"), 0, -1
        for at, _, pid, _ in _sweep_steps(left, right, force or {}, None, joins):
            nxt = nexts[pid].get(lid)
            lid = joins.step(lid, pid) if nxt is None else nxt
            stride = at - pos, pid, lid
            got = named.get(stride)
            got = name(stride) if got is None else got
            try:
                trail.append(got)
            except OverflowError:
                trail = array("i", trail)
                trail.append(got)
            pos = at
        self._trail, self._last = trail, pos
        self._accepting = frozenset(sid for sid in joins.names[lid] if joins.accepts[sid])
        self.empty = not self._accepting

    def least(self, order):
        """The common element with the least value vector (``order``
        "value") or left witness ("witness"), or None."""
        if self.empty:
            return None
        joins, cids, mids, mode = self._joins, array("i"), array("i"), order
        backs, leasts, picks = joins.backs, joins.leasts, joins.picks
        # per position walked: its stride and the id of the layer before it
        strides = list(map(joins.names.__getitem__, self._trail))
        befores = [0]
        befores += map(itemgetter(2), strides)
        cid = joins.name((self._accepting, self._accepting))
        for (_, pid, _), before in zip(reversed(strides), reversed(befores[:-1])):
            cids.append(cid)
            got = backs.get((before, pid, cid))
            cid = joins.back(before, pid, cid) if got is None else got
        mid = 0
        for (_, pid, _), cid in zip(strides, reversed(cids)):
            mids.append(mid)
            key = mid, pid, cid, mode
            got = leasts.get(key)
            mid, mode = joins.least(*key) if got is None else got
        # the states left end paths to the least element
        y, chain, pos = min(joins.names[mid]), None, self._last
        left, right = self.left.blocks, self.right.blocks
        for (gap, pid, _), mid in zip(reversed(strides), reversed(mids)):
            got = picks.get((mid, pid, y))
            x, grows = joins.pick(mid, pid, y) if got is None else got
            if grows:
                # a side opens its generator where its step is a tuple, at
                # the window that starts there
                lstep, rstep = joins.pairs[pid]
                lg = bisect_left(left, ((pos,),), key=_PAIRS) if lstep.__class__ is tuple else None
                rg = bisect_left(right, ((pos,),), key=_PAIRS) if rstep.__class__ is tuple else None
                chain = chain, lg, rg, y
            y, pos = x, pos - gap
        return self._element(chain)
