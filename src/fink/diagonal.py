"""Family validation and the diagonalization engine.

Given finitely many streams whose spans pairwise intersect in small sets,
the engine picks one block per step, cycling through the members, so that
the growing span of chosen blocks never raises its valuation against any
non-source member.  Each step verifies that stability claim exactly (the
valuation before and after adding the block must agree, and any new common
element must use the fresh block with a positive tetris exponent); a
failure aborts the run with ClaimViolation rather than being skipped.
Every two-span question here is one position sweep (``sweep._Sweep``),
which folds the count, F and the generator indices the checks read, or,
for an element named in an error, one pass of the states each position
reaches (``sweep._Reach``), so none of them enumerates a span, and this
module loads the sweep module on import.  Validation sweeps each
unordered pair of truncations once: the sweep's tail reach, the last
tail of each side that meets the other span, gives both members' tail
verdicts, and its accepting states give the pair's bound.  Each member
keeps one sweep over the blocks chosen so far, and each stability check
is one sweep resumed from it past the blocks it has already walked: the
last left generator that some common element uses at exponent 0 is the
fresh block, the last one, exactly when some common element uses the
fresh block there, so only a failing check makes one more pass, to name
that element.
"""

import itertools
from bisect import bisect_left

from .blocks import Record, _setattr, peak
from .errors import (
    ClaimViolation,
    HorizonExhausted,
    InvalidSequence,
    MismatchedLevel,
    NotAlmostDisjoint,
)
from .span import _PAIRS, BlockSequence, _new, check_witness, membership_witness
from .structure import _tail_certificate
from .sweep import _Reach, _Sweep

__all__ = [
    "AlmostDisjointFamily",
    "StabilityCheck",
    "DiagonalStep",
    "DiagonalTrace",
    "validate_family",
    "choose_next",
    "run_diagonalization",
]


class AlmostDisjointFamily(Record):
    """A validated family: streams, truncations, and pairwise valuation bounds.

    ``members`` is the tuple of streams, all at level ``k`` (an int), and
    ``truncations`` holds their BlockSequences cut at ``horizon`` (an int).
    ``tail_index`` (an int) is the number of head blocks dropped by the
    smallness check.  ``bounds`` is the symmetric matrix, a tuple of
    tuples, of the HorizonValuation of each pairwise intersection, with
    None on the diagonal.
    """

    __slots__ = ("members", "k", "tail_index", "horizon", "bounds", "truncations")

    def __init__(self, members, k, tail_index, horizon, bounds, truncations):
        _setattr(self, "members", members)
        _setattr(self, "k", k)
        _setattr(self, "tail_index", tail_index)
        _setattr(self, "horizon", horizon)
        _setattr(self, "bounds", bounds)
        _setattr(self, "truncations", truncations)

    def __len__(self):
        return len(self.members)


def validate_family(members, tail_index, horizon):
    """Check pairwise smallness at the horizon and record pairwise bounds.

    Each unordered pair i < j gets one sweep of the two truncations, whose
    ``tail_reach`` is, per side, the largest least generator index over
    the common elements' witnesses: member i's tail from the tail index on
    meets member j's span exactly when the left reach is at least the tail
    index, and member j's tail meets member i's span when the right reach
    is.  These verdicts are read for every ordered pair, i-major, before
    any bound: the first tail that meets raises NotAlmostDisjoint(i, j)
    with the smallness certificate of that ordered pair, the same one that
    ``small`` gives, from one more pass (``sweep._Reach``) for its least
    witness.  No sweep here records its moves.  The bounds matrix holds the valuation of each
    pairwise intersection, from the same sweeps.
    """
    members = tuple(members)
    if not members:
        raise InvalidSequence("a family needs at least one member")
    if tail_index < 0:
        raise ValueError(f"tail index must be nonnegative, got {tail_index}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    k = members[0].k
    for member in members[1:]:
        if member.k != k:
            raise MismatchedLevel(f"family levels {k} and {member.k}")
    count = len(members)
    truncations = tuple(member.truncate(horizon) for member in members)
    sweeps = {
        (i, j): _Sweep(truncations[i], truncations[j])
        for i, j in itertools.combinations(range(count), 2)
    }
    for i, j in itertools.permutations(range(count), 2):
        if (sweeps[i, j].tail_reach[0] if i < j else sweeps[j, i].tail_reach[1]) >= tail_index:
            certificate = _tail_certificate(truncations[i], truncations[j], tail_index, horizon)
            raise NotAlmostDisjoint(i, j, certificate)
    grid = [[None] * count for _ in range(count)]
    for (i, j), sweep in sweeps.items():
        grid[i][j] = grid[j][i] = sweep.valuation(horizon)
    return AlmostDisjointFamily(
        members=members,
        k=k,
        tail_index=tail_index,
        horizon=horizon,
        bounds=tuple(tuple(row) for row in grid),
        truncations=truncations,
    )


class StabilityCheck(Record):
    """Valuation of one member's intersection before and after a step.

    ``member`` is the member's index; ``before`` and ``after`` are the
    HorizonValuations of its intersection with the chosen blocks' span.
    """

    __slots__ = ("member", "before", "after")

    def __init__(self, member, before, after):
        _setattr(self, "member", member)
        _setattr(self, "before", before)
        _setattr(self, "after", after)

    def render(self):
        return f"{self.member}:{self.before.render_value()}->{self.after.render_value()}"


class DiagonalStep(Record):
    """One step of the diagonal: the block chosen and the checks it passed.

    ``index`` is the step number and ``member`` the source member's index
    (ints); ``block`` is the chosen Subblock.  ``between_index`` is the
    index in the source truncation of the block lying strictly between
    the previous choice and this one, or None on the opening step.
    ``checks`` is the tuple of StabilityChecks, one per engaged member.
    """

    __slots__ = ("index", "member", "block", "between_index", "checks")

    def __init__(self, index, member, block, between_index, checks):
        _setattr(self, "index", index)
        _setattr(self, "member", member)
        _setattr(self, "block", block)
        _setattr(self, "between_index", between_index)
        _setattr(self, "checks", checks)

    def render(self):
        j = "-" if self.between_index is None else str(self.between_index)
        body = ",".join(check.render() for check in self.checks)
        return f"step={self.index} q={self.block.render()} J={j} checks=[{body}]"


# a run fills its records through the slot setters, with no frame each
_set_check_member, _set_before, _set_after = StabilityCheck._setters
_set_index, _set_step_member, _set_block, _set_between_index, _set_checks = DiagonalStep._setters


class DiagonalTrace(Record):
    """A whole run of the diagonal.

    ``steps`` is the tuple of DiagonalSteps, and ``finals`` holds one
    HorizonValuation per member, over the span of all chosen blocks.
    """

    __slots__ = ("steps", "finals")

    def __init__(self, steps, finals):
        _setattr(self, "steps", steps)
        _setattr(self, "finals", finals)

    def chosen(self):
        return tuple(step.block for step in self.steps)


def choose_next(family, chosen, step_index):
    """First-fit choice of the next block from the step's source member.

    The candidate must lie strictly after the previous choice with some
    same-stream block strictly between the two, and its peak must exceed
    the ceiling, the largest engaged pairwise bound (bottom sets none).
    Returns (block, between_index); the between index is None on the
    opening step.
    """
    member = step_index % len(family.members)
    candidates = family.truncations[member].blocks
    previous = chosen[-1] if chosen else None
    if previous is None:
        if not candidates:
            raise HorizonExhausted(f"member {member} has no block inside the horizon")
        return candidates[0], None
    # engaged: the members before the step's, less its own
    row, ceiling = family.bounds[member], None
    for i in range(min(step_index, len(row))):
        floor = None if i == member or row[i] is None else row[i].value
        if floor is not None and (ceiling is None or floor > ceiling):
            ceiling = floor
    # candidates are ordered: the first one after ``previous`` lies between
    # it and every later candidate; a pairs tuple orders as its first
    # position does
    between = bisect_left(candidates, ((previous.pairs[-1][0] + 1,),), key=_PAIRS)
    for candidate in itertools.islice(candidates, between + 1, None):
        if ceiling is None or peak(candidate) > ceiling:
            return candidate, between
    raise HorizonExhausted(
        f"no admissible block for member {member} at step {step_index}"
    )


def run_diagonalization(family, cycles=1):
    """Run ``cycles`` passes over the family, verifying stability at each step.

    Returns the trace (chosen blocks, between indices, per-step checks and
    the final per-member valuations).  Raises ClaimViolation the moment a
    stability check or the positive-exponent condition fails, and
    HorizonExhausted when no admissible block exists.

    Each member keeps one sweep over the blocks chosen so far and that
    sweep's valuation, brought up to date lazily by resuming it over the
    blocks chosen since (``_Sweep(..., resume=...)``), so no step walks
    the chosen prefix again.  At each step the kept valuation is "before",
    and one sweep resumed from the kept one gives "after", which is kept,
    and the last left generator some common element uses at exponent 0:
    when that is the fresh block, the trial's last, a fresh pass that
    forces it (``sweep._Reach``) names the least such element by left
    witness, both witnesses re-evaluated.
    Witnesses are unique, so "before" is the intersection with the fresh
    block unused.  The finals are the kept sweeps after the last step, and
    each member's ceiling reference is its "before" just after its last
    source step.
    """
    if cycles < 1:
        raise ValueError("cycles must be at least 1")
    count = len(family)
    horizon = family.horizon
    picked = BlockSequence._trusted(family.k, ())
    # per member: a sweep over the first blocks of ``picked``, and its
    # valuation, or None before its first check: a sweep over no block
    # keeps no position, so resuming it would sweep afresh
    kept = [(None, None)] * count
    references = {}

    def caught_up(i, seq):
        sweep, value = kept[i]
        if sweep is None or len(sweep.left) < len(seq):
            sweep = _Sweep(seq, family.truncations[i], resume=sweep)
            value = sweep.valuation(horizon)
            kept[i] = sweep, value
        return sweep, value

    steps = []
    for n in range(cycles * count):
        member = n % count
        block, between = choose_next(family, picked.blocks, n)
        if membership_witness(block, family.truncations[member]) is None:
            raise ClaimViolation("chosen block missing from its source span", step=n)
        trial = picked.appended(block)
        checks = []
        for i in range(min(n, count)):
            if i == member:
                continue
            truncation = family.truncations[i]
            sweep, before = caught_up(i, picked)
            if n == (cycles - 1) * count + i + 1:
                references[i] = before
            resumed = _Sweep(trial, truncation, resume=sweep)
            # the fresh block is the last generator of ``trial``
            if resumed.last_zero == n:
                # only a failure sweeps again, to name the least offending element
                ce = _Reach(trial, truncation, {n: 0}).least("witness")
                check_witness(trial, ce.left_witness, ce.block)
                raise ClaimViolation(
                    f"common element {ce.block.render()} uses the fresh block with exponent 0",
                    step=n,
                    member=i,
                )
            after = resumed.valuation(horizon)
            if before.value != after.value:
                raise ClaimViolation(
                    f"valuation moved {before.render_value()} -> {after.render_value()}",
                    step=n,
                    member=i,
                )
            kept[i] = resumed, after
            check = _new(StabilityCheck)
            _set_check_member(check, i)
            _set_before(check, before)
            _set_after(check, after)
            checks.append(check)
        picked = trial
        step = _new(DiagonalStep)
        _set_index(step, n)
        _set_step_member(step, member)
        _set_block(step, block)
        _set_between_index(step, between)
        _set_checks(step, tuple(checks))
        steps.append(step)

    finals = []
    for i in range(count):
        _, final = caught_up(i, picked)
        last_source = (cycles - 1) * count + i
        reference = references[i] if last_source + 1 < len(picked) else final
        ceiling = [
            bound.value
            for j, bound in enumerate(family.bounds[i])
            if j != i and bound is not None and bound.value is not None
        ]
        if reference.value is not None:
            ceiling.append(reference.value)
        if final.value is not None and (not ceiling or final.value > max(ceiling)):
            raise ClaimViolation(
                f"final valuation {final.render_value()} exceeds its bound",
                member=i,
            )
        finals.append(final)
    return DiagonalTrace(tuple(steps), tuple(finals))
