"""Brute-force reference implementations used to cross-check the library.

Everything here works on plain ``{position: value}`` dicts and exhaustive
iteration over exponent codes, deliberately sharing no representation or
shortcuts with the package under test.  The exceptions are the position
sweep's step producer and the position sweep itself at the end, kept as
the references their replacements are checked against: they read the
package's blocks, intern their steps in a move table (the package's, or
``_Moves`` for the reference sweep) and build the package's records.
"""

import itertools
import math
import sys
from bisect import bisect_left, bisect_right
from operator import attrgetter

from fink import sweep
from fink.blocks import Subblock, _set_k, _set_pairs, peak, tetris
from fink.errors import MismatchedLevel, WitnessMismatch
from fink.span import Combination, CommonElement, HorizonValuation, _filled_valuation, _new
from fink.span import _set_starred, _set_terms, check_witness


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


# The position sweep as it was when it folded every answer in its forward
# pass: per state and move, the path count, the peak with the cells of a
# path attaining it, four generator index folds and, in ordered sweeps, the
# least prefix keys.  It is the reference for ``fink.sweep._Sweep`` and for
# the least elements and emptiness of ``fink.sweep._Reach``, which must give
# the same answers; it steps through ``sweep_steps`` above and interns its
# moves in its own table, ``_Moves``.

# above every generator index: a layer entry's least index on a side that
# no path reaching the state has used yet (no sequence is longer)
_NO_INDEX = sys.maxsize
# below every layer entry's peak position, which is -1 at the least
_NO_PEAK = (None, -2)
_UNUSED = -1

_set_block, _set_left_witness, _set_right_witness = CommonElement._setters


class _Moves:
    """A level's sweep moves, between states and pairs of steps interned
    as small ints, as the package's table held them when sweeps folded:
    ``rows[pair id]`` maps a state id to its moves ``(new state id, value,
    left generator used, right generator used)`` once ``join`` built them.
    """

    def __init__(self, k):
        self.k = k
        self.state_ids, self.states, self.accepts, self.zeros = {}, [], [], []
        self.pair_ids, self.pairs, self.rows = {}, [], []
        self.intern((None, False, None, False))

    def intern(self, state):
        sid = self.state_ids.get(state)
        if sid is None:
            sid = self.state_ids[state] = len(self.states)
            self.states.append(state)
            self.accepts.append(state[1] and state[3])
            self.zeros.append(state[0] == 0)
        return sid

    def pair(self, steps):
        pid = self.pair_ids.get(steps)
        if pid is None:
            pid = self.pair_ids[steps] = len(self.pairs)
            self.pairs.append(steps)
            self.rows.append({})
        return pid

    def join(self, sid, pid):
        (lstep, rstep), (cl, zl, cr, zr) = self.pairs[pid], self.states[sid]
        right = {}
        for c2, v, rused in sweep._side_moves(rstep, cr, self.k):
            right.setdefault(v, []).append((c2, rused))
        moves = self.rows[pid][sid] = tuple(
            (self.intern((c1, zl or c1 == 0, c2, zr or c2 == 0)), v, lused, rused)
            for c1, v, lused in sweep._side_moves(lstep, cl, self.k)
            for c2, rused in right.get(v, ())
        )
        return moves


_MOVES = {}  # per level, its ``_Moves``


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
    ``resume`` takes such a sweep over a prefix of ``left`` against the
    same ``right``, with ``force`` agreeing on the prefix, and walks only
    the positions past its kept layer, with the right windows that
    straddle it already open.  It starts from the kept layer itself, not a
    copy: the fold writes only to the layer it builds, and every fold holds
    generator indices, which mean the same in the longer sequence, so no
    sweep writes to or clears a layer another one holds.  So its set-up
    grows with the positions it walks, and it takes its kept sweep's last
    rechecked peak element, which ``peak_element`` hands out again while
    the peak path holds the same chain at the same F.  A kept layer holds
    no least prefixes, so ``order`` is not asked of a resumed sweep.
    """

    def __init__(self, left, right, force=None, walk=False, resume=None, order=None):
        if left.k != right.k:
            raise MismatchedLevel(f"levels {left.k} and {right.k}")
        self.left, self.right, self.k = left, right, left.k
        force = force or {}
        k = self.k
        self._joins = joins = _MOVES[k] if k in _MOVES else _MOVES.setdefault(k, _Moves(k))
        rows, states, zeros = joins.rows, joins.states, joins.zeros
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
        ordered, by_witness, base, bound = order is not None, order == "witness", k + 2, 1
        if ordered:
            # per left choice where a left generator opens: its symbol + 1
            symbols = {e: 1 + (e if by_witness else k - e) for e in range(k)}
            symbols[_UNUSED] = 1 + k if by_witness else 1
            least, ended = {0: (0, None)}, {}
        record = walk or ordered
        boundary = left.blocks[-1].pairs[-1][0] if left.blocks else -1
        for pos, lg, pid, rg in sweep_steps(left, right, force, walked, joins):
            nxt = {}
            seen = []
            row = rows[pid]
            for sid, (paths, top, chain, last, lleast, rleast, zero) in layer.items():
                moves = row.get(sid)
                if moves is None:
                    moves = joins.join(sid, pid)
                if record:
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
