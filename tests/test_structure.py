"""Decomposition graphs, extraction, star splitting, smallness certificates."""

import itertools
import random

import pytest

import oracle
from conftest import make_overlapping_pair
from fink import (
    BlockSequence,
    ClaimViolation,
    CommonElement,
    MinimalityViolation,
    NoIntersection,
    NotIntertwined,
    Subblock,
    WitnessMismatch,
    add,
    decomposition_graph,
    evaluate,
    extract_intertwined,
    first_common_element,
    intersect_spans,
    is_intertwined,
    make_builtin,
    membership_witness,
    parse_stream_spec,
    settle_intertwined,
    smallness_check,
    star,
    star_split,
)
from fink.sweep import _Sweep


def blk(k, pairs):
    return Subblock.from_pairs(k, pairs)


def seq(k, *bodies):
    return BlockSequence(k, [Subblock.parse_body(k, b) for b in bodies])


def common(block, left, right, starred=False):
    wl = membership_witness(block, left, starred=starred)
    wr = membership_witness(block, right, starred=starred)
    assert wl is not None and wr is not None
    return CommonElement(block, wl, wr)


P2 = seq(2, "0:2", "1:2")
Q2 = seq(2, "0:2", "1:2,2:1")
P3 = seq(2, "0:2", "1:2", "3:2")
Q3 = seq(2, "0:2", "1:2,2:1", "3:2,4:1")
R = blk(2, [(0, 2)])
S1 = blk(2, [(0, 2), (1, 1)])


class TestDecompositionGraph:
    def test_mixed_block_splits_into_two_components(self):
        ce = common(S1, P2, Q2)
        g = decomposition_graph(S1, ce.left_witness, ce.right_witness, P2, Q2)
        assert g.left == (0, 1)
        assert g.right == (0, 1)
        assert g.edges == ((0, 0), (1, 1))
        assert not g.is_connected()
        assert g.render_lines() == ["L0 - R0", "L1 - R1"]

    def test_shared_head_is_connected(self):
        ce = common(R, P2, Q2)
        g = decomposition_graph(R, ce.left_witness, ce.right_witness, P2, Q2)
        assert g.edges == ((0, 0),)
        assert g.is_connected()
        assert is_intertwined(R, ce.left_witness, ce.right_witness, P2, Q2)

    def test_component_of_left(self):
        ce = common(S1, P2, Q2)
        g = decomposition_graph(S1, ce.left_witness, ce.right_witness, P2, Q2)
        assert g.component_of_left(1) == (frozenset({1}), frozenset({1}))
        assert g.component_of_left(0) == (frozenset({0}), frozenset({0}))

    def test_witnesses_are_checked(self):
        ce = common(R, P2, Q2)
        wrong = membership_witness(blk(2, [(1, 2)]), P2)
        with pytest.raises(WitnessMismatch):
            decomposition_graph(R, wrong, ce.right_witness, P2, Q2)

    def test_single_vertex_graph_is_connected(self):
        left = seq(2, "0:2")
        ce = common(R, left, left)
        assert is_intertwined(R, ce.left_witness, ce.right_witness, left, left)


class TestExtract:
    def test_interlocked_pair_yields_the_head(self):
        result = extract_intertwined(P3, Q3)
        assert result.prefix_length == 1
        assert result.element.block == R

    def test_identical_sequences(self):
        s = seq(2, "0:2", "3:2")
        result = extract_intertwined(s, s)
        assert result.prefix_length == 1
        assert result.element.block == s[0]

    def test_least_element_skips_disconnected_candidates(self):
        # {0:1,3:2} is common and disconnected, but the bare {3:2} is
        # lexicographically smaller, so extraction settles on it directly
        left = seq(2, "0:2,1:1", "3:2")
        right = seq(2, "0:2,1:1,2:1", "3:2")
        result = extract_intertwined(left, right)
        assert result.prefix_length == 2
        assert result.element.block == blk(2, [(3, 2)])

    def test_no_intersection(self):
        with pytest.raises(NoIntersection):
            extract_intertwined(seq(2, "0:2"), seq(2, "1:2"))

    def test_prefix_is_minimal_and_result_intertwined(self):
        rng = random.Random(404)
        for _ in range(25):
            k = rng.choice([2, 3])
            left, right = make_overlapping_pair(rng, k)
            try:
                result = extract_intertwined(left, right)
            except NoIntersection:
                gens_l = [oracle.to_dict(b) for b in left]
                gens_r = [oracle.to_dict(b) for b in right]
                assert not oracle.intersection_elements(gens_l, gens_r, k)
                continue
            gens_r = [oracle.to_dict(b) for b in right]
            for n in range(1, result.prefix_length + 1):
                gens_l = [oracle.to_dict(b) for b in left.prefix(n)]
                hits = oracle.intersection_elements(gens_l, gens_r, k)
                assert bool(hits) == (n == result.prefix_length)
            element = result.element
            assert oracle.as_key(oracle.to_dict(element.block)) in hits
            assert is_intertwined(
                element.block,
                element.left_witness,
                element.right_witness,
                left.prefix(result.prefix_length),
                right,
            )


class TestSettle:
    def test_split_keeps_the_tail_component(self):
        left = seq(2, "0:2,1:1", "3:2")
        right = seq(2, "0:2", "3:2")
        element = common(blk(2, [(0, 1), (3, 2)]), left, right)
        settled = settle_intertwined(element, left, right)
        assert settled.block == blk(2, [(3, 2)])
        assert settled.left_witness.terms == ((1, 0),)
        assert settled.right_witness.terms == ((1, 0),)

    def test_connected_elements_pass_through(self):
        element = common(R, P2, Q2)
        assert settle_intertwined(element, P2, Q2) == element

    def test_discarded_full_part_is_a_minimality_violation(self):
        s = seq(2, "0:2", "3:2")
        element = common(blk(2, [(0, 2), (3, 2)]), s, s)
        with pytest.raises(MinimalityViolation):
            settle_intertwined(element, s, s)


class TestStarSplit:
    def test_head_anchor_splits_off_the_upper_part(self):
        anchor = common(R, P3, Q3)
        other = common(blk(2, [(0, 2), (1, 1), (3, 1)]), P3, Q3)
        below, above = star_split(anchor, other, P3, Q3)
        assert below.is_empty
        assert above == blk(2, [(1, 1), (3, 1)])

    def test_late_anchor_splits_off_the_lower_part(self):
        left = seq(2, "0:2,1:1", "3:2")
        right = seq(2, "0:2,1:1,2:1", "3:2")
        anchor = common(blk(2, [(3, 2)]), left, right)
        other = common(blk(2, [(0, 1), (3, 2)]), left, right)
        below, above = star_split(anchor, other, left, right)
        assert below == blk(2, [(0, 1)])
        assert above.is_empty

    def test_anchor_against_itself(self):
        anchor = common(R, P2, Q2)
        below, above = star_split(anchor, anchor, P2, Q2)
        assert below.is_empty and above.is_empty

    def test_parts_reassemble_the_star(self):
        anchor = common(R, P3, Q3)
        for ce in intersect_spans(P3, Q3):
            below, above = star_split(anchor, ce, P3, Q3)
            assert add(add(below, anchor.block), above) == star(anchor.block, ce.block)
            assert below.before(anchor.block) and anchor.block.before(above)

    def test_disconnected_anchor_rejected(self):
        anchor = common(blk(2, [(0, 2), (3, 1)]), P3, Q3)
        other = common(R, P3, Q3)
        with pytest.raises(NotIntertwined):
            star_split(anchor, other, P3, Q3)

    def test_witnesses_are_checked(self):
        anchor = common(R, P3, Q3)
        bogus = CommonElement(S1, anchor.left_witness, anchor.right_witness)
        with pytest.raises(WitnessMismatch):
            star_split(bogus, anchor, P3, Q3)

    def test_star_inside_the_anchor_window_is_checked(self, monkeypatch):
        import fink.structure

        s = seq(2, "0:2,3:1")
        anchor = common(blk(2, [(0, 2), (3, 1)]), s, s)
        lifted = blk(2, [(0, 2), (2, 1), (3, 2)])
        monkeypatch.setattr(fink.structure, "star", lambda p, q: lifted)
        with pytest.raises(ClaimViolation, match="at position 2: 1 != 0$"):
            star_split(anchor, anchor, s, s)


class TestSmallness:
    def test_interlocked_tail_is_empty_at_horizon(self):
        p = make_builtin("example13_P", 2)
        q = make_builtin("example13_Q", 2)
        cert = smallness_check(p, q, tail_index=1, horizon=9)
        assert cert.verdict == "empty_at_horizon"
        assert cert.witness is None
        assert cert.render() == "small? n=1 H=9 verdict=empty_at_horizon"

    def test_tagged_tail_is_empty_the_other_way(self):
        p = make_builtin("example13_P", 2)
        q = make_builtin("example13_Q", 2)
        cert = smallness_check(q, p, tail_index=1, horizon=9)
        assert cert.verdict == "empty_at_horizon"

    def test_full_streams_overlap(self):
        p = make_builtin("example13_P", 2)
        q = make_builtin("example13_Q", 2)
        cert = smallness_check(p, q, tail_index=0, horizon=9)
        assert cert.verdict == "nonempty"
        left = p.truncate(9)
        right = q.truncate(9)
        assert membership_witness(cert.witness.block, left) is not None
        assert membership_witness(cert.witness.block, right) is not None

    def test_disjoint_streams(self):
        p = make_builtin("example13_P", 2)
        e = make_builtin("evens", 2)
        cert = smallness_check(p, e, tail_index=1, horizon=8)
        assert cert.verdict == "empty_at_horizon"

    def test_stream_against_itself_is_never_small(self):
        p = make_builtin("example13_P", 2)
        for n in (0, 1, 3):
            cert = smallness_check(p, p, tail_index=n, horizon=15)
            assert cert.verdict == "nonempty"

    def test_witness_indexes_the_whole_left_truncation(self):
        p = make_builtin("example13_P", 2)
        q = make_builtin("example13_Q", 2)
        for left, right, n in ((p, p, 3), (p, q, 0), (q, q, 2)):
            cert = smallness_check(left, right, tail_index=n, horizon=15)
            witness = cert.witness
            assert cert.verdict == "nonempty"
            assert min(witness.left_witness.indices) >= n
            assert evaluate(left.truncate(15), witness.left_witness) == witness.block
            assert evaluate(right.truncate(15), witness.right_witness) == witness.block

    def test_the_shifted_witness_is_rechecked_over_the_whole_left(self, monkeypatch):
        import fink.structure

        p = make_builtin("example13_P", 2)
        checked = []
        check = fink.structure.check_witness

        def checking(sequence, witness, block):
            checked.append((sequence, witness, block))
            check(sequence, witness, block)

        monkeypatch.setattr(fink.structure, "check_witness", checking)
        cert = smallness_check(p, p, tail_index=3, horizon=15)
        witness = cert.witness
        assert checked == [(p.truncate(15), witness.left_witness, witness.block)]
        assert witness.left_witness.indices[0] == 3

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_tail_reach_is_the_last_tail_that_meets(self, k):
        # the left reach of one sweep, plus 1, is the least n whose tail
        # misses the right span (0 when the spans are disjoint), against
        # the smallness check of every n at the two smaller horizons, and
        # of n = 0 and every n near the reach at the larger ones (a
        # witness over a tail is one over every longer tail)
        periodic = parse_stream_spec("kind=periodic shift=2 k=2 base=0:2")
        names = ("evens", "example13_P", "example13_Q")
        pairs = [
            (make_builtin(a, k), make_builtin(b, k)) for a, b in itertools.product(names, repeat=2)
        ]
        if k == 2:
            pairs.append((make_builtin("evens", 2), periodic))
        for p, q in pairs:
            for horizon in (15, 63, 255, 1023):
                left = p.truncate(horizon)
                least = _Sweep(left, q.truncate(horizon)).tail_reach[0] + 1
                if horizon < 100:
                    scanned = range(len(left) + 2)
                else:
                    scanned = {0, *range(max(least - 3, 0), least + 3)}
                for n in scanned:
                    verdict = smallness_check(p, q, n, horizon).verdict
                    assert verdict == ("nonempty" if n < least else "empty_at_horizon")
                if q is periodic:
                    assert least == {15: 8, 63: 32, 255: 128, 1023: 512}[horizon]

    def test_negative_tail_index_rejected(self):
        p = make_builtin("example13_P", 2)
        with pytest.raises(ValueError):
            smallness_check(p, p, tail_index=-1, horizon=9)

    def test_negative_horizon_rejected_before_truncating(self, monkeypatch):
        # every truncation below 0 is empty, so the search would read
        # empty_at_horizon for a stream against itself
        p = make_builtin("example13_P", 2)
        assert smallness_check(p, p, tail_index=0, horizon=0).verdict == "nonempty"
        monkeypatch.setattr(type(p), "truncate", lambda *args: pytest.fail("truncated"))
        for horizon in (-1, -2**70):
            with pytest.raises(ValueError) as info:
                smallness_check(p, p, tail_index=0, horizon=horizon)
            assert str(info.value) == f"horizon must be nonnegative, got {horizon}"


def test_graph_observations_on_random_pairs():
    rng = random.Random(2024)
    for _ in range(20):
        k = rng.choice([2, 3])
        left, right = make_overlapping_pair(rng, k)
        for ce in intersect_spans(left, right):
            g = decomposition_graph(ce.block, ce.left_witness, ce.right_witness, left, right)
            touched_left = {i for i, _ in g.edges}
            touched_right = {j for _, j in g.edges}
            assert touched_left == set(g.left)
            assert touched_right == set(g.right)
            for a, b in g.edges:
                for a2, b2 in g.edges:
                    if a < a2:
                        assert b <= b2


def test_least_elements_come_from_sweeps_that_record_no_moves(monkeypatch):
    built = []
    init = _Sweep.__init__

    def counting(self, *args, **kwargs):
        built.append((kwargs.get("walk", False), kwargs.get("order")))
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Sweep, "__init__", counting)
    assert first_common_element(P3, Q3).left_witness.terms == ((0, 0),)
    assert built == [(False, "witness")]
    built.clear()
    # the minimal prefix, then its least element by value
    assert extract_intertwined(P3, Q3).prefix_length == 1
    assert built == [(False, None), (False, "value")]
    built.clear()
    # a nonempty verdict: the count, then the least left witness
    p = make_builtin("example13_P", 2)
    cert = smallness_check(p, p, tail_index=1, horizon=15)
    assert cert.verdict == "nonempty"
    assert built == [(False, None), (False, "witness")]
    built.clear()
    assert smallness_check(p, make_builtin("evens", 2), 1, 8).verdict == "empty_at_horizon"
    assert built == [(False, None)]
