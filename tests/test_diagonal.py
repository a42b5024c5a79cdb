"""Family validation and the cycling diagonalization engine."""

import functools
import itertools
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracle
from fink import (
    AlmostDisjointFamily,
    BlockSequence,
    ClaimViolation,
    Combination,
    CommonElement,
    DiagonalStep,
    HorizonExhausted,
    HorizonValuation,
    InvalidSequence,
    MismatchedLevel,
    NotAlmostDisjoint,
    PeriodicStream,
    SmallnessCertificate,
    StabilityCheck,
    Subblock,
    WitnessMismatch,
    choose_next,
    first_common_element,
    intersect_spans,
    make_builtin,
    peak,
    run_diagonalization,
    validate_family,
    valuation,
)
from fink import diagonal as diagonal_module
from fink import sweep as sweep_module
from fink.structure import _tail_certificate
from fink.sweep import _Sweep


def blk(k, pairs):
    return Subblock.from_pairs(k, pairs)


def seq(k, *bodies):
    return BlockSequence(k, [Subblock.parse_body(k, b) for b in bodies])


@functools.lru_cache(maxsize=None)
def three_family(horizon=21):
    members = [
        make_builtin("example13_P", 2),
        make_builtin("example13_Q", 2),
        make_builtin("evens", 2),
    ]
    return validate_family(members, tail_index=1, horizon=horizon)


class TestValidate:
    def test_three_member_family(self):
        family = three_family()
        assert len(family) == 3
        assert family.k == 2
        assert [len(t) for t in family.truncations] == [12, 11, 11]
        for i in range(3):
            assert family.bounds[i][i] is None
            for j in range(3):
                if i != j:
                    assert family.bounds[i][j].value == 0
                    assert family.bounds[i][j] == family.bounds[j][i]

    def test_pair_family(self):
        members = [make_builtin("example13_P", 2), make_builtin("example13_Q", 2)]
        family = validate_family(members, tail_index=1, horizon=21)
        assert family.bounds[0][1].value == 0

    def test_single_member_family(self):
        family = validate_family([make_builtin("example13_P", 2)], 1, 9)
        assert len(family) == 1
        assert family.bounds == ((None,),)

    def test_empty_family_rejected(self):
        with pytest.raises(InvalidSequence):
            validate_family([], 1, 9)

    def test_level_mismatch(self):
        members = [make_builtin("example13_P", 2), make_builtin("evens", 3)]
        with pytest.raises(MismatchedLevel):
            validate_family(members, 1, 9)

    def test_stream_with_itself_fails(self):
        p = make_builtin("example13_P", 2)
        with pytest.raises(NotAlmostDisjoint) as info:
            validate_family([p, p], tail_index=1, horizon=9)
        assert info.value.pair == (0, 1)
        assert info.value.certificate.verdict == "nonempty"

    def test_one_sweep_per_unordered_pair(self, monkeypatch):
        built = []
        init = _Sweep.__init__

        def counting(self, *args, **kwargs):
            built.append((kwargs.get("walk", False), kwargs.get("order")))
            init(self, *args, **kwargs)

        monkeypatch.setattr(_Sweep, "__init__", counting)
        members = [make_builtin(name, 2) for name in ("example13_P", "example13_Q", "evens")]
        validate_family(members, tail_index=1, horizon=21)
        assert built == [(False, None)] * math.comb(3, 2)
        # a failing pair adds only its certificate's witness: one sweep
        # ordered by left witness; no sweep records its moves
        p = make_builtin("example13_P", 2)
        built.clear()
        with pytest.raises(NotAlmostDisjoint) as info:
            validate_family([p, p], tail_index=1, horizon=21)
        assert built == [(False, None), (False, "witness")]
        truncation = p.truncate(21)
        assert info.value.pair == (0, 1)
        assert info.value.certificate == _tail_certificate(truncation, truncation, 1, 21)

    def test_negative_tail_index_rejected(self):
        with pytest.raises(ValueError):
            validate_family([make_builtin("example13_P", 2)], -1, 9)

    def test_negative_horizon_rejected_before_truncating(self, monkeypatch):
        # every truncation below 0 is empty, so a stream with itself would
        # pass as almost disjoint, with bottom bounds
        p = make_builtin("example13_P", 2)
        with pytest.raises(NotAlmostDisjoint):
            validate_family([p, p], 0, 0)
        monkeypatch.setattr(type(p), "truncate", lambda *args: pytest.fail("truncated"))
        with pytest.raises(ValueError) as info:
            validate_family([p, p], 0, -3)
        assert str(info.value) == "horizon must be nonnegative, got -3"

    def test_overlapping_tails_fail(self):
        p = make_builtin("example13_P", 2)
        q = make_builtin("example13_Q", 2)
        with pytest.raises(NotAlmostDisjoint):
            validate_family([p, q], tail_index=0, horizon=9)


class TestChooseNext:
    def test_opening_step_takes_the_first_block(self):
        family = three_family()
        block, between = choose_next(family, [], 0)
        assert block == blk(2, [(0, 2)])
        assert between is None

    def test_needs_a_block_strictly_between(self):
        family = three_family()
        block, between = choose_next(family, [blk(2, [(0, 2)])], 1)
        assert block == blk(2, [(3, 2), (4, 1)])
        assert between == 1

    def test_skips_blocks_under_the_floor(self):
        # doctor the pair bound upward and watch low-peak candidates fall away
        base = three_family()
        lifted = tuple(
            tuple(
                None if b is None else HorizonValuation(6, b.horizon, 1)
                for b in row
            )
            for row in base.bounds
        )
        family = AlmostDisjointFamily(
            members=base.members,
            k=base.k,
            tail_index=base.tail_index,
            horizon=base.horizon,
            bounds=lifted,
            truncations=base.truncations,
        )
        block, between = choose_next(family, [blk(2, [(0, 2)])], 1)
        # {3:2,4:1} has peak 3 <= 6, so the scan moves on to {7:2,8:1}
        assert block == blk(2, [(7, 2), (8, 1)])
        assert between == 1

    def test_horizon_exhausted(self):
        family = three_family(horizon=5)
        with pytest.raises(HorizonExhausted):
            choose_next(family, [blk(2, [(3, 2), (4, 1)])], 2)


def laid_out(k, parts):
    """A level-k sequence of one block per ``(gap, values, top)``, each
    block's values starting ``gap`` positions past the previous one's, its
    value at index ``top`` raised to k."""
    blocks, pos = [], 0
    for gap, values, top in parts:
        values = [*values[:top % len(values)], k, *values[top % len(values) + 1 :]]
        pos += gap
        blocks.append(blk(k, [(pos + i, v) for i, v in enumerate(values) if v]))
        pos += len(values)
    return BlockSequence(k, blocks)


@st.composite
def choice_problems(draw):
    """A family with bottom, low and high bounds, a previous choice and a
    step: ``(family, chosen, step_index)``."""
    k = draw(st.integers(1, 3))
    count = draw(st.integers(2, 4))
    part = st.tuples(
        st.integers(0, 2), st.lists(st.integers(0, k), min_size=1, max_size=3), st.integers(0, 2)
    )
    truncations = tuple(
        laid_out(k, draw(st.lists(part, min_size=3, max_size=12))) for _ in range(count)
    )
    grid = [[None] * count for _ in range(count)]
    for i, j in itertools.combinations(range(count), 2):
        value = draw(st.none() | st.integers(0, 24))
        grid[i][j] = grid[j][i] = HorizonValuation(value, 40, 0 if value is None else 1)
    family = AlmostDisjointFamily(
        (None,) * count, k, 0, 40, tuple(map(tuple, grid)), truncations
    )
    # -1 stands for the opening step, with nothing chosen
    previous = draw(st.integers(-1, 8))
    chosen = [] if previous < 0 else [blk(k, [(previous, k)])]
    return family, chosen, draw(st.integers(0, 3 * count))


def first_fit(family, chosen, step_index):
    """``choose_next`` by definition: the first candidate past the one
    after the previous choice whose peak exceeds every engaged floor."""
    count = len(family.members)
    member = step_index % count
    candidates = family.truncations[member].blocks
    if not chosen:
        return (candidates[0], None) if candidates else "exhausted"
    floors = [
        bound.value
        for i, bound in enumerate(family.bounds[member])
        if i < step_index and i != member and bound.value is not None
    ]
    after = [i for i, c in enumerate(candidates) if c.min_support > chosen[-1].max_support]
    for candidate in candidates[after[0] + 1 :] if after else ():
        if all(peak(candidate) > floor for floor in floors):
            return candidate, after[0]
    return "exhausted"


def several_bounds(values):
    """The three-member family with its bounds set to ``values`` (i < j order)."""
    base = three_family()
    grid = [[None] * 3 for _ in range(3)]
    for (i, j), value in zip(itertools.combinations(range(3), 2), values):
        grid[i][j] = grid[j][i] = HorizonValuation(value, 21, 0 if value is None else 1)
    return AlmostDisjointFamily(
        base.members, 2, 1, 21, tuple(map(tuple, grid)), base.truncations
    )


@given(choice_problems())
# at step 5 member 2 meets the bounds (0, 2) and (1, 2): the larger of two
# floors decides, a bottom bound sets none, and with no floor the first
# candidate is taken
@example((several_bounds((None, 2, 9)), [blk(2, [(0, 2)])], 5))
@example((several_bounds((9, None, 4)), [blk(2, [(0, 2)])], 5))
@example((several_bounds((5, None, None)), [blk(2, [(0, 2)])], 5))
def test_choose_next_is_first_fit_over_every_floor(problem):
    family, chosen, step_index = problem
    try:
        got = choose_next(family, chosen, step_index)
    except HorizonExhausted:
        got = "exhausted"
    assert got == first_fit(family, chosen, step_index)


def doctored_family(t0, t1):
    """A two-member family of hand-built truncations with bounds 0."""
    return AlmostDisjointFamily(
        members=(None, None),
        k=2,
        tail_index=0,
        horizon=9,
        bounds=(
            (None, HorizonValuation(0, 9, 1)),
            (HorizonValuation(0, 9, 1), None),
        ),
        truncations=(t0, t1),
    )


class TestRun:
    def test_single_cycle_trace(self):
        trace = run_diagonalization(three_family(), cycles=1)
        assert trace.chosen() == (
            blk(2, [(0, 2)]),
            blk(2, [(3, 2), (4, 1)]),
            blk(2, [(8, 2)]),
        )
        assert [s.between_index for s in trace.steps] == [None, 1, 3]
        assert [s.member for s in trace.steps] == [0, 1, 2]
        assert [v.value for v in trace.finals] == [0, 3, 8]

    def test_single_cycle_stability_checks(self):
        trace = run_diagonalization(three_family(), cycles=1)
        rendered = [s.render() for s in trace.steps]
        assert rendered == [
            "step=0 q=k=2|0:2 J=- checks=[]",
            "step=1 q=k=2|3:2,4:1 J=1 checks=[0:0->0]",
            "step=2 q=k=2|8:2 J=3 checks=[0:0->0,1:3->3]",
        ]

    def test_two_cycle_trace(self):
        trace = run_diagonalization(three_family(), cycles=2)
        assert trace.chosen()[3:] == (
            blk(2, [(11, 2)]),
            blk(2, [(15, 2), (16, 1)]),
            blk(2, [(20, 2)]),
        )
        assert [s.between_index for s in trace.steps[3:]] == [5, 7, 9]
        assert [s.render() for s in trace.steps[3:]] == [
            "step=3 q=k=2|11:2 J=5 checks=[1:3->3,2:8->8]",
            "step=4 q=k=2|15:2,16:1 J=7 checks=[0:11->11,2:8->8]",
            "step=5 q=k=2|20:2 J=9 checks=[0:11->11,1:15->15]",
        ]
        assert [v.value for v in trace.finals] == [11, 15, 20]

    def test_single_member_cycles(self):
        family = validate_family([make_builtin("example13_P", 2)], 1, 9)
        trace = run_diagonalization(family, cycles=2)
        assert trace.chosen() == (blk(2, [(0, 2)]), blk(2, [(3, 2)]))
        assert trace.finals[0].value == 3

    def test_horizon_exhausted_mid_run(self):
        with pytest.raises(HorizonExhausted):
            run_diagonalization(three_family(horizon=5), cycles=1)

    def test_cycles_must_be_positive(self):
        with pytest.raises(ValueError):
            run_diagonalization(three_family(), cycles=0)

    def test_doctored_family_trips_the_stability_net(self):
        # hand-built truncations that share {3:2}: adding it as the second
        # chosen block would raise member 0's valuation from 0 to 3; of the
        # two elements using it at exponent 0, 3:2 (left witness 1^0) and
        # 0:2,3:2 (0^0 + 1^0), the message names the least by left witness
        family = doctored_family(seq(2, "0:2", "3:2"), seq(2, "0:2", "1:2", "3:2"))
        with pytest.raises(ClaimViolation) as info:
            run_diagonalization(family, cycles=1)
        assert info.value.step == 1
        assert info.value.member == 0
        assert str(info.value) == (
            "step=1 member=0: common element k=2|0:2,3:2 uses the fresh block with exponent 0"
        )

    def test_the_named_element_is_rechecked_on_both_sides(self, monkeypatch):
        t0 = seq(2, "0:2", "3:2")
        family = doctored_family(t0, seq(2, "0:2", "1:2", "3:2"))
        checked = []
        check = sweep_module.check_witness

        def checking(sequence, witness, block):
            checked.append((sequence, witness.render(), block.render_body()))
            check(sequence, witness, block)

        monkeypatch.setattr(sweep_module, "check_witness", checking)
        monkeypatch.setattr(diagonal_module, "check_witness", checking)
        with pytest.raises(ClaimViolation):
            run_diagonalization(family, cycles=1)
        trial = seq(2, "0:2", "3:2")
        assert checked[-2:] == [(t0, "0^0 + 1^0", "0:2,3:2"), (trial, "0^0 + 1^0", "0:2,3:2")]

    def test_a_chosen_block_outside_its_source_span_is_refused(self, monkeypatch):
        # a choice past the source member's truncation trips the net
        monkeypatch.setattr(diagonal_module, "choose_next", lambda *args: (blk(2, [(40, 2)]), None))
        with pytest.raises(ClaimViolation) as info:
            run_diagonalization(three_family(), cycles=1)
        assert str(info.value) == "step=0: chosen block missing from its source span"

    def test_fresh_block_met_only_at_a_positive_exponent(self):
        # the fresh block {3:2,4:1} meets member 0's span only through
        # 0:2 + T(3:2,4:1) = {0:2,3:1}, which attains k at 0 alone
        t0 = seq(2, "0:2", "3:2")
        family = doctored_family(t0, seq(2, "0:2", "1:2", "3:2,4:1"))
        trace = run_diagonalization(family, cycles=1)
        assert [s.render() for s in trace.steps] == [
            "step=0 q=k=2|0:2 J=- checks=[]",
            "step=1 q=k=2|3:2,4:1 J=1 checks=[0:0->0]",
        ]
        common = intersect_spans(BlockSequence(2, trace.chosen()), t0)
        assert [ce.left_witness.terms for ce in common] == [((0, 0),), ((0, 0), (1, 1))]

    def test_one_resumed_sweep_per_check(self, monkeypatch):
        built, read = [], []

        class Reading(_Sweep):
            """A sweep that records whether it was forced, and the last
            generator of each sweep whose ``last_zero`` is read, with
            whether it was resumed."""

            def __init__(self, left, right, force=None, **kwargs):
                built.append(bool(force))
                self.resumed = kwargs.get("resume") is not None
                super().__init__(left, right, force, **kwargs)

            @property
            def last_zero(self):
                read.append((len(self.left) - 1, self.resumed))
                return self._last_zero

            @last_zero.setter
            def last_zero(self, value):
                self._last_zero = value

        family = three_family()
        monkeypatch.setattr(diagonal_module, "_Sweep", Reading)
        trace = run_diagonalization(family, cycles=2)
        # no forced sweep, and each check reads the fresh block's exponent
        # off one resumed sweep, whose last generator it is
        assert built and not any(built)
        assert read == [(step.index, True) for step in trace.steps for _ in step.checks]

    def test_a_rechecked_peak_element_is_handed_out_again(self, monkeypatch):
        family = three_family()
        expected = diagonalized_by_fresh_sweeps(family, 2)
        built, asked = [], []
        element, peak_element = _Sweep._element, _Sweep.peak_element

        def building(self, *terms):
            built.append(terms)
            return element(self, *terms)

        def asking(self):
            asked.append(self)
            return peak_element(self)

        monkeypatch.setattr(_Sweep, "_element", building)
        monkeypatch.setattr(_Sweep, "peak_element", asking)
        trace = run_diagonalization(family, cycles=2)
        assert ([s.render() for s in trace.steps], trace.finals) == expected
        assert 0 < len(built) < len(asked)

    def test_a_peak_element_not_attaining_f_is_refused(self):
        sweep = _Sweep(seq(2, "0:2", "3:2"), seq(2, "0:2", "3:2", "5:2"))
        assert sweep.peak == 3
        # one cell naming the common element 0:2 (both witnesses 0^0), whose F is 0
        sweep._peak_chain = (None, 0, 0, sweep._joins.intern((0, True, 0, True)))
        with pytest.raises(WitnessMismatch) as info:
            sweep.peak_element()
        assert str(info.value) == "element k=2|0:2 does not attain F=3"

    def test_a_changed_peak_element_is_rechecked(self, monkeypatch):
        right = seq(2, "0:2", "3:2", "5:2")
        kept = _Sweep(seq(2, "0:2"), right)
        rechecked = kept.peak_element()
        checked = []
        check = sweep_module.check_witness

        def checking(sequence, witness, block):
            checked.append((sequence, block.render_body()))
            check(sequence, witness, block)

        monkeypatch.setattr(sweep_module, "check_witness", checking)
        # position 1 is in no right generator: the peak element stays 0:2
        same = _Sweep(seq(2, "0:2", "1:2"), right, resume=kept)
        assert same.peak_element() is rechecked
        assert checked == []
        # the new block carries the peak to 3, in a new element
        moved = _Sweep(seq(2, "0:2", "3:2"), right, resume=kept)
        assert moved.valuation(9).value == 3
        assert checked == [(right, "3:2"), (moved.left, "3:2")]


# --- the derived smallness, stability and reference answers ----------------


def seeded_periodic(rng):
    """A level-2 periodic stream: one or two templates over positions 0..3."""
    base = []
    for start in range(0, 2 * rng.randint(1, 2), 2):
        support = [p for p in (start, start + 1) if rng.random() < 0.7] or [start]
        values = {p: rng.randint(1, 2) for p in support}
        values[rng.choice(support)] = 2
        base.append(blk(2, values.items()))
    width = base[-1].max_support - base[0].min_support
    return PeriodicStream(base, width + rng.randint(1, 3))


def derivation_streams():
    rng = random.Random(2402)
    builtins = [make_builtin(name, 2) for name in ("example13_P", "example13_Q", "evens")]
    return builtins + [seeded_periodic(rng) for _ in range(3)]


def probed_failure(members, tail_index, horizon):
    """The first ordered pair, i-major, whose sliced tail meets the other.

    The tail is ``truncate(H).blocks[n:]`` swept with nothing forced; its
    least-witness element, shifted back by n, is the expected certificate.
    """
    for i, j in itertools.permutations(range(len(members)), 2):
        left = members[i].truncate(horizon)
        tail = BlockSequence(left.k, left.blocks[tail_index:])
        found = first_common_element(tail, members[j].truncate(horizon))
        if found is not None:
            shifted = Combination(
                tuple((g + tail_index, e) for g, e in found.left_witness.terms)
            )
            witness = CommonElement(found.block, shifted, found.right_witness)
            return (i, j), SmallnessCertificate(tail_index, horizon, "nonempty", witness)
    return None, None


def test_derived_smallness_matches_probing_every_pair():
    streams = derivation_streams()
    families = list(itertools.permutations(streams, 2))
    # every fourth triple keeps the run short
    families += list(itertools.combinations(streams, 3))[::4]
    outcomes = set()
    for members in families:
        for horizon in (4, 7, 10):
            for tail_index in range(3):
                expected = probed_failure(members, tail_index, horizon)
                try:
                    family = validate_family(members, tail_index, horizon)
                except NotAlmostDisjoint as exc:
                    got = exc.pair, exc.certificate
                else:
                    got = None, None
                    for i, j in itertools.combinations(range(len(members)), 2):
                        common = intersect_spans(
                            members[i].truncate(horizon), members[j].truncate(horizon)
                        )
                        bound = valuation((ce.block for ce in common), horizon=horizon)
                        assert family.bounds[i][j] == family.bounds[j][i] == bound
                assert got == expected, (members, tail_index, horizon)
                outcomes.add(got[0])
    # the sample covers passing families and failures in both pair directions
    assert None in outcomes
    assert any(pair and pair[0] < pair[1] for pair in outcomes)
    assert any(pair and pair[0] > pair[1] for pair in outcomes)


def diagonalized_families():
    yield three_family(), 2
    streams = derivation_streams()
    for members in itertools.permutations(streams, 2):
        try:
            family = validate_family(members, tail_index=1, horizon=12)
        except NotAlmostDisjoint:
            continue
        yield family, 2


def oracle_valuation(k, blocks, truncation, horizon):
    """The valuation of span(blocks) meeting span(truncation), by the oracle."""
    gens_a = [oracle.to_dict(b) for b in blocks]
    gens_b = [oracle.to_dict(b) for b in truncation]
    keys = {key for key, _, _ in oracle.iter_common(gens_a, gens_b, k)}
    return HorizonValuation(
        oracle.valuation_value([dict(key) for key in keys], k), horizon, len(keys)
    )


def test_derived_before_and_reference_match_direct_intersections():
    runs = 0
    for family, cycles in diagonalized_families():
        try:
            trace = run_diagonalization(family, cycles=cycles)
        except HorizonExhausted:
            continue
        runs += 1
        chosen = trace.chosen()
        picked = BlockSequence(family.k, chosen)
        # every step's "before" and "after" and every member's final
        # reference is a prefix of the chosen list: check all prefixes
        # against the oracle
        for member, truncation in enumerate(family.truncations):
            direct = [
                oracle_valuation(family.k, chosen[:length], truncation, family.horizon)
                for length in range(len(chosen) + 1)
            ]
            for length, expected in enumerate(direct):
                prefix = picked.prefix(length)
                assert _Sweep(prefix, truncation).valuation(family.horizon) == expected
            assert trace.finals[member] == direct[-1]
            for step in trace.steps:
                for check in step.checks:
                    if check.member == member:
                        assert check.before == direct[step.index]
                        assert check.after == direct[step.index + 1]
    assert runs >= 4


def diagonalized_by_fresh_sweeps(family, cycles):
    """The step renders and finals of ``run_diagonalization``, with every
    check a fresh sweep over the whole trial sequence for "after", and
    over the blocks before the fresh one for "before"."""
    count, horizon = len(family), family.horizon
    chosen, lines = [], []
    for n in range(cycles * count):
        block, between = choose_next(family, chosen, n)
        trial = BlockSequence(family.k, chosen + [block])
        checks = []
        for i in range(min(n, count)):
            if i == n % count:
                continue
            truncation = family.truncations[i]
            assert not _Sweep(trial, truncation, {n: 0}).count
            before = _Sweep(trial.prefix(n), truncation).valuation(horizon)
            after = _Sweep(trial, truncation).valuation(horizon)
            checks.append(StabilityCheck(i, before, after))
        chosen.append(block)
        lines.append(DiagonalStep(n, n % count, block, between, tuple(checks)).render())
    picked = BlockSequence(family.k, chosen)
    finals = tuple(_Sweep(picked, t).valuation(horizon) for t in family.truncations)
    return lines, finals


def test_resumed_sweeps_match_fresh_sweeps_on_a_long_run():
    family = three_family(horizon=20001)
    trace = run_diagonalization(family, cycles=40)
    assert len(trace.steps) == 120
    rendered = [s.render() for s in trace.steps]
    assert (rendered, trace.finals) == diagonalized_by_fresh_sweeps(family, 40)
