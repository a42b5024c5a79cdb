"""The position sweep: every question about two spans at once, in one pass.

A question about the common elements of two spans (their count, listing,
valuation F, least element, minimal meeting prefix, tail verdicts) is one
forward pass over both sequences' support positions that folds every
answer, least elements keyed by one symbol per left generator opened.  Its
moves come from one table per level, which joins both sides' choices on
value and holds only the entries sweeps have met; it interns states and
each position's pair of steps as small ints, so a state's moves are two
list indexings away.  A pass resumed from an earlier one over a prefix of
the left sequence shares that pass's kept layer instead of copying it,
since a pass writes only the layer it builds.  The pass skips whole every
generator window ``[min_support, max_support]`` that holds no support
position of the other side: used at exponent e < k, the generator keeps
the value k - e >= 1 at its peak, where the other side's value is 0, so it
can only be unused.  Its steps come from one index walk over both sides'
blocks, started by bisecting them on their pairs, so its cost is
polynomial in the positions where both sides' windows meet, plus one step
per window skipped, plus a set-up that follows the windows around its
start.  A path's witness terms are one immutable cell per move that uses
a generator, read off only for an element it hands out.  That element is
built in one frame: its block joins its left terms' tetris images in one
loop, its records are filled through their slot setters, and its right
witness is re-evaluated against the block (``span.check_witness``).

The sweep is loaded on the first two-span question, so a command that asks
only about one span never compiles it: ``span.intersect_spans``,
``span.first_common_element`` and the sweeping functions of ``structure``
load it when called, through ``span._sweeping``, and ``diagonal``, every
step of which sweeps, imports it at its top.
"""

import math
from bisect import bisect_left

from .blocks import Subblock, _set_k, _set_pairs, peak, tetris
from .errors import EnumerationCapExceeded, MismatchedLevel, WitnessMismatch
from .span import _PAIRS, Combination, CommonElement, HorizonValuation, _filled_valuation, _new
from .span import _set_starred, _set_terms, check_witness

# a position sweep's choice for a generator it does not use
_UNUSED = -1

# before the first position: no window open, no exponent 0 seen on either side
_START = (None, False, None, False)
# a layer entry's marks: bit 1 (2) is set when some path reaching the state
# has a left (right) witness that uses no generator below the tail index,
# and bit 4 when some path uses left generator ``fresh`` at exponent 0
_LEFT_MARK, _RIGHT_MARK, _FRESH_MARK = 1, 2, 4
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

    The positions lie inside the hull of the left generators not forced
    unused, widened to every right window it cuts: outside it every left
    value is 0, so every right generator whose window misses it is unused.
    A resumed sweep starts past its kept layer's position ``walked``, with
    each side's window that straddles it already open; a fresh sweep opens
    no window before its first position (its hull may start inside the
    window of a left generator forced unused).

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
    fixes its left generator to an exponent: used at exponent e < k, the
    generator keeps the value k - e >= 1 at its peak, where the other
    side's value is 0, so only "unused" survives it.  At its positions the
    other side is off its support, so its step (0 or None) gives the value
    0 and no answer moves; the skipped side keeps a stale choice, which the
    next opening overwrites or the next step outside every window maps to
    None.  The walk skips it by stepping past its last pair.  The hull is
    the outer case of the same rule.
    """
    blocks, others = left.blocks, right.blocks
    pair = joins.pair
    last = len(blocks) - 1
    while last >= 0 and force.get(last) == _UNUSED:
        last -= 1
    if last < 0:
        return
    hi = blocks[last].pairs[-1][0]
    # the right windows that start at or before ``hi``
    rstop = bisect_left(others, ((hi + 1,),), key=_PAIRS)
    if walked is None:
        first = 0
        while force.get(first) == _UNUSED:
            first += 1
        lo = blocks[first].pairs[0][0]
        # the right windows that start before ``lo``
        rg = bisect_left(others, ((lo,),), 0, rstop, key=_PAIRS)
    else:
        lo = walked + 1
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
    lstop = last + 1
    while lstop < len(blocks) and blocks[lstop].pairs[0][0] <= hi:
        lstop += 1
    lg = first if walked is None else lstop
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
    if li >= 0 and walked is not None:
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
            # the next right position lies past the window: skip it unless
            # ``force`` fixes an exponent, stepping past its last pair
            end = lpairs[-1][0]
            forced = force.get(lg)
            if ra > end and forced in (None, _UNUSED):
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
                ri = len(rpairs) - 1
                continue
            ropen, rend, ropened = rg, end, rg
            rstep = rv, None
        yield pos, lopened, pair((lstep, rstep)), ropened
        lopened = ropened = None


def _fold_least(seen, least, ended, lg, rg, states, symbols, base, by_witness):
    """The least prefix reaching each state after one position, and by
    witness the least ended prefix, as maps state id -> (key, chain).

    ``seen`` holds the position's (state id, moves) for every state before
    it, ``states`` the level's states by id, and ``least`` and ``ended``
    the prefixes that reach those states.
    Where left generator ``lg`` opens, a key gains the symbol of the move's
    left choice (``symbols``), and an ended key the symbol -1 + 1 = 0.  By
    witness, a move that uses ``lg`` may end the witness at that term, so
    its prefix is an ended one too, sharing the grown chain; every other
    move carries the ended prefix on.
    """
    nleast, nended = {}, {}
    for state, moves in seen:
        key, chain = least[state]
        prior = ended.get(state)
        if lg is not None:
            key *= base
            if prior is not None:
                prior = prior[0] * base, prior[1]
        for new, _, lused, rused in moves:
            grows = lused or rused
            new_key = key + symbols[states[new][0]] if lg is not None else key
            entry = None
            found = nleast.get(new)
            if found is None or new_key < found[0]:
                entry = nleast[new] = new_key, (chain, lg, rg, new) if grows else chain
            if lused and by_witness:
                found = nended.get(new)
                if found is None or new_key < found[0]:
                    nended[new] = entry or (new_key, (chain, lg, rg, new))
            elif prior is not None:
                found = nended.get(new)
                if found is None or prior[0] < found[0]:
                    nended[new] = prior[0], (prior[1], lg, rg, new) if grows else prior[1]
    return nleast, nended


def _ranked(*prefixes):
    """Replace every key in the maps ``prefixes`` by its rank and return
    how many keys there are: keys held after one position are equally
    long, so ranks keep their order."""
    keys = sorted({key for held in prefixes for key, _ in held.values()})
    ranks = dict(zip(keys, range(len(keys))))
    for held in prefixes:
        for state, (key, chain) in held.items():
            held[state] = ranks[key], chain
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
    otherwise memory does not grow with the positions.  A path's witness
    terms grow as a chain of cells (``_element`` reads them), one per move
    that uses a generator opened there, shared by the least and least ended
    prefix when they coincide; an element handed out builds its block from
    its left terms' tetris images and re-evaluates the right witness.

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
    again while the peak path holds the same chain at the same F.  A kept
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
        # the cell chain of a path attaining it (None before its first
        # cell), largest left index used, its marks], -1 standing for "none
        # yet"; earlier layers are not kept, so the path counts, which grow
        # to big integers, are not stored
        walked, layer = None, {0: [1, -1, None, -1, _LEFT_MARK | _RIGHT_MARK]}
        # the last rechecked peak element's chain, its F and itself
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
            least, ended = {0: (0, None)}, {}
        record = walk or ordered
        boundary = left.blocks[-1].pairs[-1][0] if left.blocks else -1
        for pos, lg, pid, rg in _sweep_steps(left, right, force, walked, joins):
            nxt = {}
            seen = []
            # a used generator below the tail index clears its side's mark,
            # and left generator ``fresh`` used at exponent 0 sets its own
            lkeep = ~_LEFT_MARK if lg is not None and lg < tail else -1
            rkeep = ~_RIGHT_MARK if rg is not None and rg < tail else -1
            lfresh = _FRESH_MARK if lg is not None and lg == fresh else 0
            for sid, (paths, top, chain, last, marks) in layer.items():
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
                        # a chain grows only when a witness gains a term
                        grown = (chain, lg, rg, new) if lused or rused else chain
                        nxt[new] = [paths, new_top, grown, new_last, m]
                    else:
                        held[0] += paths
                        if new_top > held[1]:
                            held[1] = new_top
                            held[2] = (chain, lg, rg, new) if lused or rused else chain
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
            self.peak, self._peak_chain = best[1], best[2]
            self.prefix_length = least_last + 1
            if ordered:
                # keys differ among accepting states: each is one element
                held = ended if by_witness else least
                self.least = self._element(min(map(held.get, accepting))[1])

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
