"""Span enumeration, membership witnesses, intersections, valuation."""

import contextlib
import copy
import io
import itertools
import math
import os
import random
import tempfile
import tracemalloc
from bisect import bisect_left

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from conftest import make_overlapping_pair, make_random_sequence
from fink import (
    BlockSequence,
    Combination,
    CommonElement,
    EnumerationCapExceeded,
    HorizonExhausted,
    HorizonValuation,
    IndexOutOfRange,
    InvalidCombination,
    InvalidSequence,
    MismatchedLevel,
    NotABlock,
    OverlappingSupport,
    ParseError,
    Subblock,
    WitnessMismatch,
    decomposition_graph,
    enumerate_span,
    evaluate,
    first_common_element,
    intersect_spans,
    make_builtin,
    membership_witness,
    peak,
    run_diagonalization,
    star,
    star_split,
    tetris,
    validate_family,
    valuation,
)
from fink import span
from fink import sweep as sweep_module
from fink.cli import main
from fink.sweep import _UNUSED, _Sweep


def blk(k, pairs):
    return Subblock.from_pairs(k, pairs)


def seq(k, *bodies):
    return BlockSequence(k, [Subblock.parse_body(k, b) for b in bodies])


R = blk(2, [(0, 2)])
S1 = blk(2, [(0, 2), (1, 1)])
S2 = blk(2, [(0, 2), (1, 1), (3, 1)])


class TestBlockSequence:
    def test_requires_blocks(self):
        with pytest.raises(InvalidSequence):
            seq(2, "0:1")

    def test_requires_matching_level(self):
        with pytest.raises(MismatchedLevel):
            BlockSequence(2, [blk(3, [(0, 3)])])

    def test_requires_strict_order(self):
        with pytest.raises(InvalidSequence):
            seq(2, "0:2,2:1", "1:2")

    def test_empty_sequence_is_allowed(self):
        empty = BlockSequence(2, [])
        assert len(empty) == 0
        assert enumerate_span(empty).elements == ()

    def test_prefix(self):
        s = seq(2, "0:2", "1:2", "3:2")
        assert s.prefix(2) == seq(2, "0:2", "1:2")
        assert s.prefix(0) == BlockSequence(2, [])

    def test_appended_checks_only_the_join(self):
        s = seq(2, "0:2", "1:2")
        assert s.appended(blk(2, [(3, 2)])) == seq(2, "0:2", "1:2", "3:2")
        assert BlockSequence(2, []).appended(blk(2, [(0, 2)])) == seq(2, "0:2")
        # unchecked sequences whose last block is at another level or is
        # not a block; the last block is checked before the new one
        other_level = BlockSequence._trusted(2, (blk(2, [(0, 2)]), blk(3, [(1, 3)])))
        not_a_block = BlockSequence._trusted(2, (R, blk(2, [(1, 1)]), blk(2, [(3, 2)])))
        cases = [
            (s, blk(3, [(3, 3)]), MismatchedLevel, "sequence level 2, block k=3|3:3"),
            (s, blk(2, [(3, 1)]), InvalidSequence, "not a block: k=2|3:1"),
            (s, Subblock._raw(2, ()), InvalidSequence, "not a block: k=2|-"),
            (s, blk(2, [(1, 2)]), InvalidSequence, "supports out of order: 1:2 !< 1:2"),
            (s, blk(2, [(0, 2), (4, 2)]), InvalidSequence, "supports out of order: 1:2 !< 0:2,4:2"),
            # level before block-ness, both before order
            (s, blk(3, [(0, 1)]), MismatchedLevel, "sequence level 2, block k=3|0:1"),
            (s, blk(2, [(0, 1)]), InvalidSequence, "not a block: k=2|0:1"),
            (other_level, blk(2, [(3, 1)]), MismatchedLevel, "sequence level 2, block k=3|1:3"),
            (not_a_block.prefix(2), blk(3, [(3, 3)]), InvalidSequence, "not a block: k=2|1:1"),
        ]
        for base, block, error, message in cases:
            with pytest.raises(error) as appended:
                base.appended(block)
            # the constructor, checking the last block and the new one, agrees
            with pytest.raises(error) as built:
                BlockSequence(base.k, base.blocks[-1:] + (block,))
            assert str(appended.value) == str(built.value) == message

    def test_parse_file_round_trip(self):
        text = "# generators\nk=2\n0:2\n\n1:2,2:1\n"
        s = BlockSequence.parse_file(text)
        assert s == seq(2, "0:2", "1:2,2:1")
        assert BlockSequence.parse_file("k=2\n0:2\n1:2,2:1\n") == s

    def test_parse_file_reports_line(self):
        with pytest.raises(ParseError) as info:
            BlockSequence.parse_file("k=2\n0:2\nbogus\n")
        assert info.value.line == 3

    def test_parse_file_requires_header(self):
        with pytest.raises(ParseError):
            BlockSequence.parse_file("0:2\n1:2\n")


class TestCombination:
    def test_parse_render_round_trip(self):
        c = Combination.parse("0^0 + 2^1")
        assert c.terms == ((0, 0), (2, 1))
        assert Combination.parse(c.render()) == c

    def test_empty_starred(self):
        c = Combination.parse("-", starred=True)
        assert c.terms == ()
        assert c.render() == "-"

    def test_empty_unstarred_is_refused(self):
        with pytest.raises(ParseError, match="an unstarred combination needs at least one term"):
            Combination.parse(" - ")

    def test_unstarred_needs_zero_exponent(self):
        with pytest.raises(InvalidCombination):
            Combination(((0, 1), (1, 2)), starred=False)
        Combination(((0, 1), (1, 2)), starred=True)

    def test_unstarred_cannot_be_empty(self):
        with pytest.raises(InvalidCombination):
            Combination((), starred=False)

    def test_indices_strictly_increase(self):
        with pytest.raises(InvalidCombination):
            Combination(((1, 0), (0, 0)), starred=False)
        with pytest.raises(InvalidCombination):
            Combination(((0, 0), (0, 1)), starred=False)

    def test_negative_exponent_rejected(self):
        with pytest.raises(InvalidCombination):
            Combination(((0, -1),), starred=True)


def unchecked(k, *generators):
    """A sequence built without validation: generators may come in any
    order and need not attain k."""
    s = object.__new__(BlockSequence)
    s.k, s.blocks = k, tuple(blk(k, g) for g in generators)
    return s


def oracle_sum(s, terms):
    """The oracle's pairs for ``terms`` over ``s``, or None on an overlap."""
    gens = [oracle.to_dict(b) for b in s]
    total = oracle.add_dicts([oracle.tetris_dict(gens[i], e) for i, e in terms])
    return None if total is None else oracle.as_key(total)


class TestEvaluate:
    def test_interleaved_sum(self):
        s = seq(2, "0:2", "1:2", "3:2")
        got = evaluate(s, Combination(((0, 0), (1, 1), (2, 1)), starred=False))
        assert got == S2

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            evaluate(seq(2, "0:2"), Combination(((1, 0),), starred=False))

    def test_exponent_must_stay_below_level(self):
        with pytest.raises(InvalidCombination):
            evaluate(seq(2, "0:2"), Combination(((0, 2),), starred=True))

    def test_empty_combination(self):
        assert evaluate(seq(2, "0:2"), Combination((), starred=True)).is_empty

    def test_images_out_of_order_go_through_add(self):
        # built without validation, so a later image may start before an earlier one
        unordered = object.__new__(BlockSequence)
        unordered.k, unordered.blocks = 2, (blk(2, [(3, 2)]), blk(2, [(0, 2), (5, 1)]))
        both = Combination(((0, 0), (1, 0)))
        assert evaluate(unordered, both) == blk(2, [(0, 2), (3, 2), (5, 1)])
        unordered.blocks = (blk(2, [(0, 2), (3, 2)]), blk(2, [(1, 1), (3, 2)]))
        with pytest.raises(OverlappingSupport, match="position 3$"):
            evaluate(unordered, both)

    def test_image_that_drops_its_low_values_lands_after_the_pairs(self):
        # generator 1 starts at 0, before the gathered (3, 3), but at
        # exponent 1 its value 1 there drops and its image starts at 5
        s = unchecked(3, [(3, 3)], [(0, 1), (5, 3)], [(1, 2), (7, 3)])
        for terms, expected in (
            (((0, 0), (1, 1)), ((3, 3), (5, 2))),
            (((0, 0), (1, 1), (2, 2)), ((3, 3), (5, 2), (7, 1))),
            (((0, 1), (1, 2), (2, 0)), ((1, 2), (3, 2), (5, 1), (7, 3))),
        ):
            assert oracle_sum(s, terms) == expected
            assert evaluate(s, Combination(terms, starred=True)).pairs == expected
        # a generator that starts before the gathered pairs and meets one
        with pytest.raises(OverlappingSupport, match="^supports meet at position 3$"):
            evaluate(unchecked(3, [(3, 3)], [(0, 1), (3, 1)]), Combination(((0, 0), (1, 0))))

    def test_image_that_its_exponent_empties(self):
        # values of at most e vanish under T^e, wherever the generator lies
        s = unchecked(3, [(4, 2)], [(0, 1), (2, 2)], [(6, 3)], [(8, 1)])
        for terms in (
            ((0, 2), (2, 0)),  # emptied first: nothing gathered yet
            ((0, 0), (1, 2), (2, 0)),  # starts before the gathered pairs
            ((0, 0), (2, 0), (3, 1)),  # after them: appends nothing
            ((0, 2), (1, 2), (3, 2)),  # every image empty
        ):
            expected = oracle_sum(s, terms)
            assert evaluate(s, Combination(terms, starred=True)).pairs == expected
        assert evaluate(s, Combination(((0, 2), (1, 2), (3, 2)), starred=True)).is_empty

    def test_first_bad_term_is_named(self):
        s = seq(2, "0:2", "1:2")
        for terms, error, message in (
            (((0, 0), (2, 0), (3, 5)), IndexOutOfRange, "index 2 outside 0..1"),
            (((0, 3), (2, 0)), InvalidCombination, "exponent 3 not below level 2"),
            (((0, 0), (1, 2), (5, 0)), InvalidCombination, "exponent 2 not below level 2"),
            # one term bad in both ways: its index is checked first
            (((0, 0), (4, 7)), IndexOutOfRange, "index 4 outside 0..1"),
        ):
            with pytest.raises(error) as caught:
                evaluate(s, Combination(terms, starred=True))
            assert str(caught.value) == message


class TestEnumerate:
    def test_two_generator_span(self):
        s = seq(2, "0:2", "1:2")
        got = enumerate_span(s)
        expect = {
            blk(2, [(0, 2)]),
            blk(2, [(1, 2)]),
            blk(2, [(0, 2), (1, 2)]),
            blk(2, [(0, 2), (1, 1)]),
            blk(2, [(0, 1), (1, 2)]),
        }
        assert set(got.blocks()) == expect
        assert len(got.elements) == 5
        assert not got.includes_empty

    def test_two_generator_starred_span(self):
        s = seq(2, "0:2", "1:2")
        got = enumerate_span(s, starred=True)
        extra = {
            blk(2, [(0, 1)]),
            blk(2, [(1, 1)]),
            blk(2, [(0, 1), (1, 1)]),
        }
        assert set(got.blocks()) == set(enumerate_span(s).blocks()) | extra
        assert len(got.elements) == 8
        assert got.includes_empty

    def test_witnesses_evaluate_back(self):
        s = seq(2, "0:2", "1:2,2:1", "4:2")
        for block, witness in enumerate_span(s, starred=True).elements:
            assert evaluate(s, witness) == block

    def test_cap(self):
        s = seq(2, *[f"{2 * i}:2" for i in range(20)])
        with pytest.raises(EnumerationCapExceeded):
            enumerate_span(s)
        with pytest.raises(EnumerationCapExceeded):
            enumerate_span(seq(2, "0:2", "1:2"), cap_bits=1.0)

    def test_cap_counts_the_listing_exactly(self):
        # 3^2 - 2^2 = 5 unstarred elements, 3^2 - 1 = 8 nonempty starred ones
        s = seq(2, "0:2", "1:2")
        assert len(enumerate_span(s, cap_bits=2.33)) == 5
        with pytest.raises(EnumerationCapExceeded, match="^5 combinations need 2.3 bits"):
            enumerate_span(s, cap_bits=2.3)
        assert len(enumerate_span(s, starred=True, cap_bits=3)) == 8
        with pytest.raises(EnumerationCapExceeded, match="^8 combinations need 3.0 bits"):
            enumerate_span(s, starred=True, cap_bits=2.99)

    @pytest.mark.parametrize("starred", [False, True])
    def test_huge_count_refused_from_its_lower_bound(self, starred):
        # both counts are about 2^79.2; the bound (k+1)^(N-1) is 2^77.7
        s = seq(2, *[f"{2 * i}:2" for i in range(50)])
        with pytest.raises(
            EnumerationCapExceeded,
            match=r"^over 2\^64 combinations need at least 77\.7 bits, cap is 24\.0$",
        ):
            enumerate_span(s, starred=starred)
        # a cap above the bound is judged on the exact count
        with pytest.raises(
            EnumerationCapExceeded,
            match=r"^over 2\^64 combinations need 79\.2 bits, cap is 78\.0$",
        ):
            enumerate_span(s, starred=starred, cap_bits=78.0)

    def test_cap_that_is_not_a_number_refuses_every_listing(self):
        s = seq(2, "0:2", "1:2")
        with pytest.raises(EnumerationCapExceeded, match="^5 combinations need 2.3 bits"):
            enumerate_span(s, cap_bits=math.nan)
        # a one-element listing too, its walk taking the empty head directly
        with pytest.raises(EnumerationCapExceeded, match="^1 combinations need 0.0 bits"):
            enumerate_span(seq(2, "0:2"), cap_bits=math.nan)
        with pytest.raises(EnumerationCapExceeded, match="^5 common elements need 2.3 bits"):
            intersect_spans(s, s, cap_bits=math.nan)
        # nothing to list is never refused
        assert intersect_spans(s, seq(2, "5:2"), cap_bits=math.nan) == ()

    def test_cap_message_names_a_huge_count_by_its_size(self):
        s = seq(2, *[f"{2 * i}:2" for i in range(50)])
        with pytest.raises(EnumerationCapExceeded, match=r"^over 2\^64 common elements need 79\.2 bits"):
            intersect_spans(s, s)


class _CountedTuple(tuple):
    """A tuple that counts the items read from it."""

    reads = 0

    def __getitem__(self, index):
        item = super().__getitem__(index)
        self.reads += len(item) if isinstance(index, slice) else 1
        return item

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item


class TestMembership:
    def test_witness_format(self):
        s = seq(2, "0:2", "1:2", "3:2")
        w = membership_witness(S2, s)
        assert w.terms == ((0, 0), (1, 1), (2, 1))
        assert w.render() == "0^0 + 1^1 + 2^1"

    def test_minimal_exponent_rule(self):
        s = seq(2, "0:2", "1:2")
        t = blk(2, [(1, 1)])
        assert membership_witness(t, s) is None
        starred = membership_witness(t, s, starred=True)
        assert starred.terms == ((1, 1),)

    def test_empty_subblock(self):
        s = seq(2, "0:2")
        assert membership_witness(Subblock.from_pairs(2, ()), s) is None
        w = membership_witness(Subblock.from_pairs(2, ()), s, starred=True)
        assert w.terms == () and w.starred

    def test_unsupported_position_fails(self):
        s = seq(2, "0:2", "3:2")
        assert membership_witness(blk(2, [(0, 2), (1, 1)]), s) is None

    def test_annihilated_tail_must_vanish(self):
        s = seq(2, "0:2", "1:2,2:1")
        # exponent 1 wipes the trailing 2:1, so this is a member
        w = membership_witness(blk(2, [(0, 2), (1, 1)]), s)
        assert w.terms == ((0, 0), (1, 1))
        # exponent 0 keeps 2:1 alive, so the value at 2 cannot be absent
        assert membership_witness(blk(2, [(0, 2), (1, 2)]), s) is None
        w = membership_witness(blk(2, [(0, 2), (1, 2), (2, 1)]), s)
        assert w.terms == ((0, 0), (1, 0))

    def test_partially_annihilated_tail(self):
        s = seq(3, "0:3", "1:3,2:2")
        # exponent 1 leaves 2:1 behind, which the subblock must carry
        assert membership_witness(blk(3, [(0, 3), (1, 2)]), s) is None
        w = membership_witness(blk(3, [(0, 3), (1, 2), (2, 1)]), s)
        assert w.terms == ((0, 0), (1, 1))

    def test_partly_hit_generator_fails(self):
        s = seq(2, "0:2,1:1", "3:2,4:2,5:1")
        assert membership_witness(blk(2, [(0, 2), (1, 1), (3, 2), (4, 2), (5, 1)]), s)
        # the first generator's image at exponent 0 also holds 1:1
        assert membership_witness(blk(2, [(0, 2)]), s) is None
        # the last generator's image at exponent 0 also holds 5:1, or 4:2 inside
        assert membership_witness(blk(2, [(0, 2), (1, 1), (3, 2), (4, 2)]), s) is None
        assert membership_witness(blk(2, [(0, 2), (1, 1), (3, 2), (5, 1)]), s) is None
        # at exponent 1 the last image is 3:1,4:1, so both must be hit
        w = membership_witness(blk(2, [(0, 1), (3, 1), (4, 1)]), s, starred=True)
        assert w.terms == ((0, 1), (1, 1))
        assert membership_witness(blk(2, [(0, 1), (3, 1)]), s, starred=True) is None

    def test_wide_block_builds_no_images(self):
        s = make_builtin("evens", 2).truncate(20001)
        comb = Combination(tuple((i, i % 2) for i in range(len(s))))
        tracemalloc.start()
        try:
            assert membership_witness(evaluate(s, comb), s) == comb
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the element, its witness and its recheck: about 1.8 MB for these
        # 10001 generators; the k tetris images of each add 1.5 MB more
        assert peak_bytes < 2_000_000

    def test_lookups_do_not_scan(self):
        s = make_builtin("evens", 2).truncate(20001)
        blocks = _CountedTuple(s.blocks)
        counted = BlockSequence._trusted(s.k, blocks)
        last = len(s) - 1
        assert membership_witness(s[last], counted) == Combination(((last, 0),))
        # one generator tried, a bisection, then the witness recheck
        assert blocks.reads <= 2 * math.log2(len(s))
        assert not hasattr(BlockSequence, "_position_index")

    def test_inconsistent_forced_exponents_fail(self):
        s = seq(2, "0:2,1:2")
        assert membership_witness(blk(2, [(0, 2), (1, 1)]), s) is None

    def test_level_mismatch(self):
        with pytest.raises(MismatchedLevel):
            membership_witness(blk(3, [(0, 3)]), seq(2, "0:2"))


class TestIntersect:
    def test_interlocked_pair(self):
        left = seq(2, "0:2", "1:2", "3:2")
        right = seq(2, "0:2", "1:2,2:1", "3:2,4:1")
        got = intersect_spans(left, right)
        blocks = [ce.block for ce in got]
        assert blocks == [
            R,
            S1,
            S2,
            blk(2, [(0, 2), (3, 1)]),
        ]
        for ce in got:
            assert evaluate(left, ce.left_witness) == ce.block
            assert evaluate(right, ce.right_witness) == ce.block
        key = {oracle.as_key(oracle.to_dict(b)) for b in blocks}
        gens_l = [oracle.to_dict(b) for b in left]
        gens_r = [oracle.to_dict(b) for b in right]
        assert key == oracle.intersection_elements(gens_l, gens_r, 2)

    def test_disjoint_spans(self):
        assert intersect_spans(seq(2, "0:2"), seq(2, "1:2")) == ()
        assert first_common_element(seq(2, "0:2"), seq(2, "1:2")) is None

    def test_first_common_element(self):
        left = seq(2, "0:2", "1:2")
        ce = first_common_element(left, left)
        assert ce.block == R

    def test_sides_are_symmetric(self):
        rng = random.Random(1105)
        for _ in range(25):
            left, right = make_overlapping_pair(rng, rng.choice([2, 3]))
            one = {ce.block for ce in intersect_spans(left, right)}
            two = {ce.block for ce in intersect_spans(right, left)}
            assert one == two


class TestWitnessRecheck:
    """Positive answers are rechecked by a raise, which ``python -O`` keeps.

    The rechecks compare the pairs of the pairs core ``evaluate_pairs``, so
    a core that lies, about every combination or about one side's, must
    trip each of them."""

    @pytest.fixture
    def lying_evaluate(self, monkeypatch):
        monkeypatch.setattr(span, "evaluate_pairs", lambda seq, comb: ((99, seq.k),))

    def test_membership(self, lying_evaluate):
        s = seq(2, "0:2", "1:2", "3:2")
        # every path of the decision ends in the recheck: unstarred, starred
        # with no exponent 0, and a run past a gap, which bisects the sequence
        for block, starred in (
            (S2, False),
            (blk(2, [(0, 1), (1, 1)]), True),
            (blk(2, [(3, 2)]), False),
        ):
            with pytest.raises(WitnessMismatch):
                membership_witness(block, s, starred=starred)

    def test_intersection(self, lying_evaluate):
        left = seq(2, "0:2", "1:2", "3:2")
        with pytest.raises(WitnessMismatch):
            intersect_spans(left, left)

    def test_a_block_at_another_level_is_a_mismatch(self):
        # the same pairs at another level: the recheck compares levels too
        span.check_witness(seq(2, "0:2"), Combination(((0, 0),)), R)
        with pytest.raises(WitnessMismatch):
            span.check_witness(seq(2, "0:2"), Combination(((0, 0),)), blk(3, [(0, 2)]))

    @pytest.mark.parametrize("lying", ["left", "right", "both"])
    def test_graph_and_star_split(self, monkeypatch, lying):
        left = seq(2, "0:2", "1:2", "3:2")
        right = seq(2, "0:2", "1:2,2:1", "3:2,4:1")
        # a core that lies about one side's combinations only, or both
        liars = {"left": (left,), "right": (right,), "both": (left, right)}[lying]
        honest = span.evaluate_pairs
        monkeypatch.setattr(
            span,
            "evaluate_pairs",
            lambda s, comb: ((99, s.k),) if any(s is liar for liar in liars) else honest(s, comb),
        )
        anchor = CommonElement(R, Combination(((0, 0),)), Combination(((0, 0),)))
        other = CommonElement(
            S2, Combination(((0, 0), (1, 1), (2, 1))), Combination(((0, 0), (1, 1), (2, 1)))
        )
        for ask in (
            lambda: decomposition_graph(S2, other.left_witness, other.right_witness, left, right),
            lambda: star_split(anchor, other, left, right),
        ):
            with pytest.raises(WitnessMismatch):
                ask()


class TestValuation:
    def test_examples(self):
        v = valuation([R, S1, S2])
        assert v.value == 0
        assert v.element_count == 3
        assert v.horizon == 3
        assert valuation([blk(2, [(3, 2)])]).value == 3

    def test_bottom(self):
        v = valuation([])
        assert v.value is None
        assert v.render_value() == "bottom"

    def test_bottom_differs_from_zero(self):
        assert valuation([]).value != valuation([R]).value

    def test_explicit_horizon(self):
        v = valuation([R], horizon=9)
        assert v.render() == "F=0 count=1 horizon=9"

    def test_value_cannot_exceed_horizon(self):
        with pytest.raises(ValueError):
            HorizonValuation(value=4, horizon=3, element_count=1)
        with pytest.raises(ValueError):
            HorizonValuation(value=None, horizon=3, element_count=1)

    def test_union_law_small(self):
        a = [R, S1]
        b = [blk(2, [(5, 2)])]
        assert valuation(a + b).value == max(valuation(a).value, valuation(b).value)
        assert valuation(a + []).value == valuation(a).value

    def test_peak_is_the_rightmost_full_value(self):
        assert valuation([blk(2, [(0, 1), (1, 2), (3, 1)])]).value == 1
        assert valuation([blk(3, [(0, 3), (2, 3), (4, 2)]), blk(3, [(6, 3)])]).value == 6

    # errors come block by block, in order: a block's peak before its
    # horizon, so the first offending block names the error
    def test_non_block_before_a_block_past_the_horizon(self):
        with pytest.raises(NotABlock, match=r"^value 2 never attained$"):
            valuation([R, blk(2, [(1, 1)]), blk(2, [(5, 2)])], horizon=3)

    def test_non_block_after_a_block_past_the_horizon(self):
        with pytest.raises(HorizonExhausted, match=r"^block 5:2 reaches past horizon 3$"):
            valuation([R, blk(2, [(5, 2)]), blk(2, [(7, 1)])], horizon=3)

    def test_non_block_past_the_horizon(self):
        with pytest.raises(NotABlock, match=r"^value 2 never attained$"):
            valuation([blk(2, [(5, 1)])], horizon=3)

    def test_empty_subblock(self):
        for horizon in (None, 3):
            with pytest.raises(NotABlock, match=r"^value 2 never attained$"):
                valuation([R, Subblock._raw(2, ())], horizon=horizon)


# one dict per generator, owner-partitioned so supports stay disjoint
def generator_lists(k):
    return st.dictionaries(
        st.integers(0, 9),
        st.tuples(st.integers(0, 2), st.integers(1, k)),
        min_size=1,
        max_size=8,
    ).map(lambda d: _owners_to_blocks(d, k))


def _owners_to_blocks(assignment, k):
    groups = {}
    for pos, (owner, val) in sorted(assignment.items()):
        groups.setdefault(owner, {})[pos] = val
    blocks = []
    for owner in sorted(groups):
        vals = groups[owner]
        vals[max(vals)] = k  # force a full value so each part is a block
        blocks.append(Subblock.from_pairs(k, vals.items()))
    blocks = [b for b in blocks if b.is_block]
    kept = []
    for b in blocks:
        if not kept or kept[-1].before(b):
            kept.append(b)
    return BlockSequence(k, kept)


def followed_by(seq, blocks, gap):
    """``seq`` then ``blocks`` moved to start ``gap`` positions past its end."""
    start = seq.blocks[-1].max_support + 1 + gap
    return BlockSequence(seq.k, seq.blocks + tuple(b.shift(start) for b in blocks))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_evaluate_matches_oracle(k, data):
    first = data.draw(generator_lists(k))
    s = followed_by(first, data.draw(generator_lists(k)).blocks, data.draw(st.integers(0, 3)))
    codes = data.draw(st.lists(st.integers(0, k), min_size=len(s), max_size=len(s)))
    terms = tuple((i, c - 1) for i, c in enumerate(codes) if c)
    gens = [oracle.to_dict(b) for b in s]
    expected = oracle.add_dicts([oracle.tetris_dict(gens[i], e) for i, e in terms])
    for starred in (False, True):
        if not starred and (not terms or min(e for _, e in terms)):
            continue
        assert evaluate(s, Combination(terms, starred)).pairs == oracle.as_key(expected)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_evaluate_in_any_order_matches_oracle(k, data):
    # unvalidated generators in any order, overlapping or not attaining k,
    # so terms take both the append path and the image-and-add path
    generators = data.draw(
        st.lists(
            st.dictionaries(st.integers(0, 9), st.integers(1, k), min_size=1, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    s = unchecked(k, *(g.items() for g in generators))
    codes = data.draw(st.lists(st.integers(0, k), min_size=len(s), max_size=len(s)))
    terms = tuple((i, c - 1) for i, c in enumerate(codes) if c)
    expected = oracle_sum(s, terms)
    if expected is None:
        with pytest.raises(OverlappingSupport):
            evaluate(s, Combination(terms, starred=True))
    else:
        assert evaluate(s, Combination(terms, starred=True)).pairs == expected


def _assert_checked(witness, starred):
    """A combination built on a trusted path passes every check of the
    validating constructor and equals what it builds."""
    assert type(witness.terms) is tuple and witness.starred is starred
    rebuilt = Combination(witness.terms, witness.starred)
    assert rebuilt == witness and hash(rebuilt) == hash(witness)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_trusted_combinations_pass_the_checks(k, data):
    left = data.draw(generator_lists(k))
    right = data.draw(st.one_of(generator_lists(k), partners(left)))
    for starred in (False, True):
        for block, witness in enumerate_span(left, starred=starred):
            _assert_checked(witness, starred)
            _assert_checked(membership_witness(block, left, starred=starred), starred)
    _assert_checked(membership_witness(Subblock._raw(k, ()), left, starred=True), True)
    found = [*intersect_spans(left, right), first_common_element(left, right)]
    found.append(_Sweep(left, right, order="value").least)
    sweep = _Sweep(left, right)
    if sweep.count:
        found.append(sweep.peak_element())
    for ce in found:
        if ce is not None:
            _assert_checked(ce.left_witness, False)
            _assert_checked(ce.right_witness, False)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_membership_of_partial_hits_matches_oracle(k, data):
    s = data.draw(generator_lists(k))
    gens = [oracle.to_dict(b) for b in s]
    for starred in (False, True):
        table = oracle.span_witnesses(gens, k, starred)
        # drop one pair of each element: a generator it used is then only partly hit
        for key in list(table):
            for drop in range(len(key)):
                part = key[:drop] + key[drop + 1 :]
                if not part:
                    continue
                found = membership_witness(blk(k, part), s, starred=starred)
                assert (None if found is None else [found.terms]) == table.get(part)


def _gap_probes(s, terms, element):
    """``element`` (the evaluation of ``terms`` over ``s``, as a dict) and
    perturbations of it: a run at exponent > 0 without its first pair, one
    value moved by 1, and a pair added inside a gap, inside a window off
    the support, or past the last block; none is empty."""
    k = s.k
    probes = [element]
    for g, e in terms:
        run = oracle.tetris_dict(oracle.to_dict(s[g]), e)
        if e and run:
            probes.append({p: v for p, v in element.items() if p != min(run)})
    for pos, v in element.items():
        for moved in (v - 1, v + 1):
            if 0 <= moved <= k:
                probes.append({**element, pos: moved})
    off = [s[-1].max_support + 1, s[-1].max_support + 2]
    for left, right in zip(s, s[1:]):
        if left.max_support + 1 < right.min_support:
            off += [left.max_support + 1, right.min_support - 1]
    for b in s:
        support = set(b.support)
        off += [p for p in range(b.min_support, b.max_support) if p not in support][:1]
    for pos in off:
        for v in (1, k):
            probes.append({**element, pos: v})
    probes = [{p: v for p, v in probe.items() if v} for probe in probes]
    return [probe for probe in probes if probe]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_membership_across_gaps_matches_oracle(k, data):
    first = data.draw(generator_lists(k))
    gap = data.draw(st.sampled_from([0, 1, 2, 3, 10**9]))
    # at most five generators keep the oracle's (k+1)^N table small
    s = followed_by(first, data.draw(generator_lists(k)).blocks[:2], gap)
    codes = data.draw(st.lists(st.integers(0, k), min_size=len(s), max_size=len(s)))
    terms = tuple((i, c - 1) for i, c in enumerate(codes) if c)
    gens = [oracle.to_dict(b) for b in s]
    element = oracle.add_dicts([oracle.tetris_dict(gens[i], e) for i, e in terms])
    probes = _gap_probes(s, terms, element)
    for starred in (False, True):
        table = oracle.span_witnesses(gens, k, starred)
        for probe in probes:
            found = membership_witness(blk(k, probe.items()), s, starred=starred)
            expected = table.get(oracle.as_key(probe))
            assert (None if found is None else [found.terms]) == expected


def _witness_order(terms):
    return tuple(i for i, _ in terms), tuple(e for _, e in terms)


def test_walk_starts_without_listing_the_subsets():
    # 2^60 - 1 index subsets: a walk that gathered them first would not return
    s = seq(1, *[f"{i}:1" for i in range(60)])
    first = [(b.pairs, w.terms) for b, w in itertools.islice(span._span_walk(s, False), 3)]
    assert first == [
        (((0, 1),), ((0, 0),)),
        (((0, 1), (1, 1)), ((0, 0), (1, 0))),
        (((0, 1), (1, 1), (2, 1)), ((0, 0), (1, 0), (2, 0))),
    ]
    # index subsets come in lexicographic order, each before its extensions
    subsets = [w.indices for _, w in span._span_walk(s.prefix(3), False)]
    assert subsets == [(0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,)]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_enumeration_matches_oracle(k, data):
    s = data.draw(generator_lists(k))
    gens = [oracle.to_dict(b) for b in s]
    for starred in (False, True):
        table = oracle.span_witnesses(gens, s.k, starred)
        got = enumerate_span(s, starred=starred)
        # the oracle's elements, listed in witness order
        listed = [(w.sort_key(), oracle.as_key(oracle.to_dict(b))) for b, w in got.elements]
        assert listed == sorted(
            (_witness_order(terms), key) for key, witnesses in table.items() for terms in witnesses
        )
        assert all(a < b for (a, _), (b, _) in zip(listed, listed[1:]))
        # witnesses are unique, and membership agrees with enumeration
        for witnesses in table.values():
            assert len(witnesses) == 1
        for block, witness in got.elements:
            found = membership_witness(block, s, starred=starred)
            assert found == witness
        assert got.includes_empty is starred


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_listing_and_streamed_rows_agree(k, data):
    s = data.draw(generator_lists(k))
    text = f"k={k}\n" + "".join(f"{b.render_body()}\n" for b in s)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "drawn.seq")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for starred in (False, True):
            listed = [f"{b.render_body()} <- {w.render()}" for b, w in enumerate_span(s, starred)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["span", "--seq", path, *(["--starred"] if starred else [])])
            assert code == 0
            assert out.getvalue().splitlines() == listed + (["- <- -"] if starred else [])


def test_listing_at_a_wide_level_builds_one_element():
    # unstarred, one generator lists its exponent 0 alone: no tetris image
    # and no exponent is stepped through
    k = 10**8
    s = seq(k, f"0:{k}")
    tracemalloc.start()
    try:
        listing = enumerate_span(s)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(b.pairs, w.terms) for b, w in listing] == [(((0, k),), ((0, 0),))]
    assert peak_bytes < 64 * 1024


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_intersection_matches_oracle(k, data):
    left = data.draw(generator_lists(k))
    right = data.draw(generator_lists(k))
    common = intersect_spans(left, right)
    expected = oracle.intersection_elements(
        [oracle.to_dict(b) for b in left], [oracle.to_dict(b) for b in right], k
    )
    assert {oracle.as_key(oracle.to_dict(ce.block)) for ce in common} == expected
    assert len(common) == len(expected)
    for ce in common:
        assert evaluate(left, ce.left_witness) == ce.block
        assert evaluate(right, ce.right_witness) == ce.block


def partners(left):
    """A sequence of left's span elements, so the two spans meet."""
    pool = list(enumerate_span(left).blocks())

    def assemble(picks):
        kept = []
        for b in picks:
            if all(c.before(b) or b.before(c) for c in kept):
                kept.append(b)
        return BlockSequence(left.k, sorted(kept, key=lambda b: b.min_support))

    return st.lists(st.sampled_from(pool), min_size=1, max_size=4).map(assemble)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
@given(data=st.data())
def test_sweep_matches_oracle(k, data):
    left = data.draw(generator_lists(k))
    right = data.draw(st.one_of(generator_lists(k), partners(left)))
    # one side may reach far past the other, where the sweep does not walk
    reach = data.draw(st.sampled_from(["neither", "right", "left"]))
    gap = data.draw(st.one_of(st.integers(0, 12), st.just(10**9)))
    if reach == "right":
        right = followed_by(right, data.draw(generator_lists(k)).blocks[:2], gap)
    elif reach == "left":
        left = followed_by(left, data.draw(generator_lists(k)).blocks[:1], gap)
    gens_l = [oracle.to_dict(b) for b in left]
    gens_r = [oracle.to_dict(b) for b in right]
    table = {key: (a, b) for key, a, b in oracle.iter_common(gens_l, gens_r, k)}
    assert set(table) == oracle.intersection_elements(gens_l, gens_r, k)

    sweep = _Sweep(left, right)
    assert sweep.count == len(table)
    assert sweep.peak == oracle.valuation_value([dict(key) for key in table], k)
    if table:
        assert peak(sweep.peak_element().block) == sweep.peak
    # only a walking sweep keeps its steps; both agree on everything else
    walking = _Sweep(left, right, walk=True)
    assert sweep.moves is None and len(walking.moves) == len(walking.opened)
    assert (walking.count, walking.peak, walking.prefix_length) == (
        sweep.count, sweep.peak, sweep.prefix_length
    )
    if table:
        assert walking.peak_element() == sweep.peak_element()
    # the last tail of each side that meets the other span, and the last
    # left generator used at exponent 0
    assert sweep.tail_reach == (
        max((a[0][0] for a, _ in table.values()), default=-1),
        max((b[0][0] for _, b in table.values()), default=-1),
    )
    assert sweep.last_zero == max(
        (g for a, _ in table.values() for g, e in a if e == 0), default=-1
    )
    # the tail verdict for every n, from a sweep of the tail as its own
    # sequence, and every forced choice of one generator
    for n in range(len(left) + 1):
        tail = _Sweep(BlockSequence(k, left.blocks[n:]), right)
        assert bool(tail.count) == bool(oracle.intersection_elements(gens_l[n:], gens_r, k))
        assert bool(tail.count) == (sweep.tail_reach[0] >= n)
    for g in range(len(left)):
        for choice in range(_UNUSED, k):
            expected = sum(dict(a).get(g, _UNUSED) == choice for a, _ in table.values())
            assert _Sweep(left, right, {g: choice}).count == expected
    meets = [
        n for n in range(1, len(left) + 1)
        if oracle.intersection_elements(gens_l[:n], gens_r, k)
    ]
    assert sweep.prefix_length == (meets[0] if meets else None)

    listing = intersect_spans(left, right)
    assert {
        (oracle.as_key(oracle.to_dict(ce.block)), ce.left_witness.terms, ce.right_witness.terms)
        for ce in listing
    } == {(key, a, b) for key, (a, b) in table.items()}
    assert [ce.left_witness.sort_key() for ce in listing] == sorted(
        ce.left_witness.sort_key() for ce in listing
    )
    first = first_common_element(left, right)
    least = _Sweep(left, right, order="value").least
    if not table:
        assert first is None and least is None and not listing
        return
    assert first.left_witness.terms == min(a for a, _ in table.values())
    assert oracle.as_key(oracle.to_dict(least.block)) == min(
        table, key=lambda key: oracle.value_vector(dict(key))
    )
    for ce in (first, least):
        assert table[oracle.as_key(oracle.to_dict(ce.block))] == (
            ce.left_witness.terms, ce.right_witness.terms
        )
    # the least elements over every prefix of left, and over every tail of
    # it as its own sequence, as the smallness certificate's sweep takes it,
    # its left witness indices shifted back by the tail index
    for n in range(1, len(left) + 1):
        for within_left, shift, within in (
            (left.prefix(n), 0, [key for key, (a, _) in table.items() if a[-1][0] < n]),
            (
                BlockSequence(k, left.blocks[n:]),
                n,
                [key for key, (a, _) in table.items() if a[0][0] >= n],
            ),
        ):
            by_value = _Sweep(within_left, right, order="value").least
            by_witness = _Sweep(within_left, right, order="witness").least
            if not within:
                assert by_value is None and by_witness is None
                continue

            def shifted(ce):
                return tuple((g + shift, e) for g, e in ce.left_witness.terms)

            assert oracle.as_key(oracle.to_dict(by_value.block)) == min(
                within, key=lambda key: oracle.value_vector(dict(key))
            )
            assert shifted(by_witness) == min(table[key][0] for key in within)
            for ce in (by_value, by_witness):
                assert table[oracle.as_key(oracle.to_dict(ce.block))] == (
                    shifted(ce), ce.right_witness.terms
                )


@pytest.mark.parametrize("k", [2, 4])
def test_least_elements_after_many_positions(k):
    # keys grow by a factor k + 2 per left generator opened and are
    # re-ranked past 64 bits, so over 40 or more left generators the least
    # elements are found by ranks
    rng = random.Random(7 + k)
    for _ in range(4):
        left = make_random_sequence(rng, k, max_generators=60, max_position=120)
        while len(left) < 40:
            left = make_random_sequence(rng, k, max_generators=60, max_position=120)
        # four sums of consecutive left generators, which together use every
        # one, so that every left window holds a right position and is walked
        cuts = [0, *sorted(rng.sample(range(1, len(left)), 3)), len(left)]
        groups = []
        for start, stop in zip(cuts, cuts[1:]):
            terms = [(g, rng.randrange(k)) for g in range(start, stop)]
            i = rng.randrange(len(terms))
            terms[i] = (terms[i][0], 0)
            groups.append(evaluate(left, Combination(tuple(terms))))
        right = BlockSequence(k, groups)
        # more openings than 64 / log2(k + 2): the sweep over ``left`` re-ranks
        opened = [lg for lg, _ in _Sweep(left, right, walk=True).opened if lg is not None]
        assert opened == list(range(len(left)))
        assert len(opened) > 64 / math.log2(k + 2)
        for a, b in ((left, right), (right, left)):
            listing = intersect_spans(a, b)
            assert len(listing) > 1
            assert first_common_element(a, b) == min(
                listing, key=lambda ce: ce.left_witness.sort_key()
            )
            assert _Sweep(a, b, order="value").least == min(
                listing, key=lambda ce: oracle.value_vector(oracle.to_dict(ce.block))
            )


def test_a_witness_ordered_sweep_grows_one_cell_per_move():
    # example13_P and example13_Q over about 2^12 blocks each: with one
    # cell per move that uses a generator the sweep peaks near 0.65 MiB on
    # CPython 3.10-3.13, and near 1.9 MiB if each such move rebuilds both
    # witnesses' term lists
    P, Q = (make_builtin(name, 2).truncate(8190) for name in ("example13_P", "example13_Q"))
    _Sweep(P, Q, order="witness")  # builds the level's moves this sweep meets
    tracemalloc.start()
    try:
        least = _Sweep(P, Q, order="witness").least
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert least.block.render() == "k=2|0:2"
    assert peak_bytes <= 1.2 * 2**20


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_tail_marks_match_head_forced_sweeps(k, data):
    left = data.draw(generator_lists(k))
    right = data.draw(st.one_of(generator_lists(k), partners(left)))
    if data.draw(st.booleans()):
        left, right = right, left
    # each side's reach is the last n whose tail, swept as its own
    # sequence, meets the other span; swapping the sides swaps the reach
    sweep = _Sweep(left, right)
    reach = sweep.tail_reach
    for n in range(len(left) + 2):
        assert (reach[0] >= n, reach[1] >= n) == (
            bool(_Sweep(BlockSequence(k, left.blocks[n:]), right).count),
            bool(_Sweep(BlockSequence(k, right.blocks[n:]), left).count),
        )
    assert _Sweep(right, left).tail_reach == reach[::-1]
    assert (reach == (-1, -1)) == (sweep.count == 0)


def product_moves(k, state, lstep, rstep):
    """The moves of the per-level move table that the value join replaced,
    as the reference: the (choice, value) moves ``(c, v - c if 0 <= c < v
    else 0)`` of every choice where a generator's support starts at value v,
    the state's own choice inside a window open at value v, and "no window"
    at value 0 outside every window; then the product of both sides' moves,
    left choices first, filtered on equal value."""
    starts = [
        tuple((c, v - c if 0 <= c < v else 0) for c in range(_UNUSED, k)) for v in range(k + 1)
    ]

    def side(step, choice):
        if step is None:
            return [(None, 0, False)]
        if isinstance(step, tuple):
            v, forced = step
            return [(c, w, c >= 0) for c, w in starts[v] if forced in (None, c)]
        return [(c, w, False) for c, w in starts[step] if c == choice]

    cl, zl, cr, zr = state
    return tuple(
        ((c1, zl or c1 == 0, c2, zr or c2 == 0), v1, lused, rused)
        for c1, v1, lused in side(lstep, cl)
        for c2, v2, rused in side(rstep, cr)
        if v1 == v2
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_joined_moves_match_the_move_product(k):
    # every step the sweep can take: inside a window a state's choice is
    # never None, and only the left side is ever forced
    choices = [None, *range(_UNUSED, k)]
    states = list(itertools.product(choices, (False, True), choices, (False, True)))
    inside = list(range(k + 1))
    left_steps = [None, *inside, *itertools.product(inside, [None, *range(_UNUSED, k)])]
    right_steps = [None, *inside, *((v, None) for v in inside)]
    joins = sweep_module._Joins(k)
    joined = 0
    for state, lstep, rstep in itertools.product(states, left_steps, right_steps):
        cl, _, cr, _ = state
        if cl is None and lstep.__class__ is int or cr is None and rstep.__class__ is int:
            continue
        sid, pid = joins.intern(state), joins.pair((lstep, rstep))
        assert sid not in joins.rows[pid]
        moves = joins.join(sid, pid)
        joined += 1
        assert joins.rows[pid][sid] is moves
        # each id names its state, and the lists beside the ids agree with it
        assert tuple(
            (joins.states[new], v, lused, rused) for new, v, lused, rused in moves
        ) == product_moves(k, state, lstep, rstep)
    for sid, (cl, zl, cr, zr) in enumerate(joins.states):
        assert joins.state_ids[cl, zl, cr, zr] == sid
        assert joins.accepts[sid] == (zl and zr) and joins.zeros[sid] == (cl == 0)
    assert joins.states[0] == sweep_module._START
    assert [joins.pair_ids[steps] for steps in joins.pairs] == list(range(len(joins.pairs)))
    # one row per pair of steps, holding only the states joined there: a
    # state a move reaches gets no row
    assert len(joins.rows) == len(joins.pairs)
    assert sum(map(len, joins.rows)) == joined


def met_moves(joins):
    """Every built entry of a move table, by state and steps."""
    return {
        (joins.states[sid], joins.pairs[pid]): moves
        for pid, row in enumerate(joins.rows)
        for sid, moves in row.items()
    }


def test_the_move_table_lives_with_its_level():
    members = [make_builtin(name, 2) for name in ("example13_P", "example13_Q", "evens")]
    family = validate_family(members, tail_index=1, horizon=21)
    run_diagonalization(family, cycles=2)
    joins = sweep_module._JOINS[2]
    met = met_moves(joins)
    states, pairs = list(joins.states), list(joins.pairs)
    assert met
    # a second identical run meets only entries the first one met, and
    # interns no new state and no new pair of steps
    family = validate_family(members, tail_index=1, horizon=21)
    run_diagonalization(family, cycles=2)
    assert sweep_module._JOINS[2] is joins
    assert met_moves(joins) == met
    assert (joins.states, joins.pairs) == (states, pairs)
    # a refused level makes no table
    edge = seq(2048, "0:2048")
    with pytest.raises(EnumerationCapExceeded):
        _Sweep(edge, edge)
    assert 2048 not in sweep_module._JOINS


def walked_positions(left, right, force=None):
    """The positions a fresh sweep of ``left`` against ``right`` walks."""
    joins = sweep_module._joins(left.k)
    return [step[0] for step in sweep_module._sweep_steps(left, right, force or {}, None, joins)]


def test_sweep_walks_only_the_usable_left_hull():
    evens = make_builtin("evens", 2).truncate(20001)
    left = seq(2, "0:2", "2:2,3:1", "40000:2")
    # the hull of the first two generators is [0, 3]: positions 0, 2 and 3
    sweep = _Sweep(left.prefix(2), evens, walk=True)
    assert len(sweep.moves) == 3
    assert walked_positions(left.prefix(2), evens) == [0, 2, 3]
    assert {ce.block for ce in sweep.elements()} == {blk(2, [(0, 2)]), blk(2, [(0, 2), (2, 1)])}
    # with the last generator usable the hull is [0, 40000], but the evens
    # window [4, 4] holds no left position and is skipped, as is every
    # later one, and the left window [40000, 40000] holds no evens position
    usable = _Sweep(left, evens, walk=True)
    assert walked_positions(left, evens) == [0, 2, 3]
    assert len(usable.moves) == 3
    assert {ce.block for ce in usable.elements()} == {ce.block for ce in sweep.elements()}
    # the right window [0, 2] cuts the hull [1, 1], which widens to it; it
    # holds the left position 1, while the left window [1, 1] holds no
    # right position and is skipped
    assert walked_positions(seq(2, "1:2"), seq(2, "0:2,2:1", "5:2")) == [0, 2]
    assert _Sweep(seq(2, "1:2"), seq(2, "0:2,2:1", "5:2")).count == 0
    # a tail, swept as its own sequence, starts at its own first window
    assert walked_positions(BlockSequence(2, seq(2, "1:2", "4:2").blocks[1:]), evens) == [4]
    # a left window inside the widened hull [0, 5] is skipped when it
    # holds no right position, else walked
    assert walked_positions(seq(2, "0:2", "3:2"), seq(2, "0:2,5:1")) == [0, 5]
    assert walked_positions(seq(2, "0:2", "3:2"), seq(2, "0:2,3:1,5:1")) == [0, 3, 5]
    # one whose choice is forced is walked, and no path survives exponent 0
    assert walked_positions(seq(2, "0:2", "3:2"), seq(2, "0:2,5:1"), {1: _UNUSED}) == [0, 3, 5]
    forced_unused = seq(2, "0:2", "3:2"), seq(2, "0:2,5:1"), {1: _UNUSED}, None
    assert [step[0] for step in named_steps(oracle.sweep_steps, *forced_unused)] == [0, 3, 5]
    assert walked_positions(seq(2, "0:2", "3:2"), seq(2, "0:2,5:1"), {1: 0}) == [0, 3, 5]
    assert _Sweep(seq(2, "0:2", "3:2"), seq(2, "0:2,5:1"), {1: 0}).count == 0


def sweep_answers(sweep, horizon=99):
    element = sweep.peak_element() if sweep.count else None
    return (
        sweep.count, sweep.peak, sweep.prefix_length, sweep.tail_reach, sweep.last_zero,
        element, sweep.valuation(horizon),
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_resumed_sweep_matches_a_fresh_one(k, data):
    left = data.draw(generator_lists(k))
    # a partner's generators are sums of left generators, so their windows
    # straddle left blocks and widen a prefix's hull past its last block
    right = data.draw(st.one_of(generator_lists(k), partners(left)))
    g = data.draw(st.integers(0, len(left) - 1))
    choice = data.draw(st.sampled_from([None, _UNUSED, 0]))
    force = {} if choice is None else {g: choice}

    def last_zero(m, within):
        # the fold's meaning: the last h that a sweep forcing it to
        # exponent 0 finds a common element through
        return next(
            (
                h for h in range(m - 1, -1, -1)
                if within.get(h, 0) == 0 and _Sweep(left.prefix(m), right, {**within, h: 0}).count
            ),
            -1,
        )

    fresh = _Sweep(left, right, force)
    answers = sweep_answers(fresh)
    assert fresh.last_zero == last_zero(len(left), force)
    # every split point: one block, several blocks or none appended; the
    # kept layer's folds name generators of ``left`` too, so they hold
    # whether or not the resumed sweep walks the last generator
    for m in range(len(left) + 1):
        within = {h: c for h, c in force.items() if h < m}
        kept = _Sweep(left.prefix(m), right, within)
        assert sweep_answers(_Sweep(left, right, force, resume=kept)) == answers
    # resuming one block at a time, as the diagonal engine does
    chained = None
    for m in range(len(left) + 1):
        within = {h: c for h, c in force.items() if h < m}
        chained = _Sweep(left.prefix(m), right, within, resume=chained)
        direct = _Sweep(left.prefix(m), right, within)
        assert sweep_answers(chained) == sweep_answers(direct)
        assert chained.last_zero == last_zero(m, within)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_resuming_never_writes_to_the_kept_sweep(k, data):
    left = data.draw(generator_lists(k))
    right = data.draw(st.one_of(generator_lists(k), partners(left)))
    fresh = sweep_answers(_Sweep(left, right))
    for m in range(1, len(left) + 1):
        # a kept sweep, as the diagonal engine keeps one after each check
        kept = _Sweep(left.prefix(m), right)
        snapshot = copy.deepcopy(kept._kept)
        first = _Sweep(left, right, resume=kept)
        assert kept._kept == snapshot
        second = _Sweep(left, right, resume=kept)
        assert kept._kept == snapshot
        assert sweep_answers(first) == sweep_answers(second) == fresh
        assert kept._kept == snapshot


def _body(values, start, k):
    """A block over ``start, start + 1, ...`` from ``values`` (0 leaves a
    hole), its largest value raised to k."""
    values = list(values)
    values[values.index(max(values))] = k
    return blk(k, [(start + i, v) for i, v in enumerate(values) if v])


def interleaved_pairs(k):
    """Two sequences laid out along one line of windows, each segment a
    left or right window alone, one block on both sides, or one side's
    window around the other's: most lone windows hold no position of the
    other side, and the shared blocks give common elements past them."""
    values = st.lists(st.integers(0, k), min_size=1, max_size=3).filter(any)
    segment = st.tuples(
        st.sampled_from(["left", "right", "both", "left around", "right around"]),
        values,
        st.tuples(st.integers(1, k), st.integers(1, k)),
        st.integers(0, 2),
    )

    def lay_out(segments):
        sides = {"left": [], "right": []}
        pos = 0
        for kind, inner, (a, b), gap in segments:
            if kind.endswith("around"):
                outer, other = kind.split()[0], "right" if kind.startswith("left") else "left"
                block = _body(inner, pos + 1, k)
                sides[other].append(block)
                end = block.max_support + 1
                sides[outer].append(_body([a] + [0] * (end - pos - 1) + [b], pos, k))
                pos = end + 1 + gap
                continue
            block = _body(inner, pos, k)
            for side in ("left", "right") if kind == "both" else (kind,):
                sides[side].append(block)
            pos = block.max_support + 1 + gap
        for side in sides.values():
            if not side:
                side.append(_body([k], pos, k))
        return BlockSequence(k, sides["left"]), BlockSequence(k, sides["right"])

    return st.lists(segment, min_size=1, max_size=4).map(lay_out)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_merged_graph_matches_the_set_intersection_reference(k, data):
    if data.draw(st.booleans()):
        left, right = data.draw(interleaved_pairs(k))
    else:
        left, right = make_overlapping_pair(random.Random(data.draw(st.integers(0, 2**32))), k)
    if data.draw(st.booleans()):
        left, right = right, left
    gens_l = [oracle.to_dict(b) for b in left]
    gens_r = [oracle.to_dict(b) for b in right]
    # the common elements, then every element of both starred spans, whose
    # witnesses use exponents above 0 and so drop pairs on both sides
    found = [(ce.block, ce.left_witness, ce.right_witness) for ce in intersect_spans(left, right)]
    for block, witness in enumerate_span(left, starred=True):
        other = membership_witness(block, right, starred=True)
        if other is not None:
            found.append((block, witness, other))
    for block, lw, rw in found:
        graph = decomposition_graph(block, lw, rw, left, right)
        assert (graph.left, graph.right, graph.edges) == oracle.decomposition_graph(
            gens_l, gens_r, lw.terms, rw.terms
        )


def skipped_windows(left, right, force=None):
    """Every window that holds no support position of the other side, the
    left ones among them not forced, as (side, generator)."""
    force = force or {}
    skipped = []
    for side, blocks, others in (("left", left, right), ("right", right, left)):
        positions = sorted(pos for b in others for pos, _ in b.pairs)
        for g, b in enumerate(blocks):
            if side == "left" and g in force:
                continue
            i = bisect_left(positions, b.min_support)
            if i == len(positions) or positions[i] > b.max_support:
                skipped.append((side, g))
    return skipped


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8])
@given(data=st.data())
def test_skipping_sweep_matches_oracle(k, data):
    if data.draw(st.booleans()):
        left, right = data.draw(interleaved_pairs(k))
    else:
        left = data.draw(generator_lists(k))
        right = data.draw(st.one_of(generator_lists(k), partners(left)))
    if data.draw(st.booleans()):
        left, right = right, left
    gens_l = [oracle.to_dict(b) for b in left]
    gens_r = [oracle.to_dict(b) for b in right]
    if len(gens_r) < len(gens_l):
        table = {key: (a, b) for key, b, a in oracle.iter_common(gens_r, gens_l, k)}
    else:
        table = {key: (a, b) for key, a, b in oracle.iter_common(gens_l, gens_r, k)}
    walking = _Sweep(left, right, walk=True)
    assert walking.count == len(table)
    assert walking.peak == oracle.valuation_value([dict(key) for key in table], k)
    assert {
        (oracle.as_key(oracle.to_dict(ce.block)), ce.left_witness.terms, ce.right_witness.terms)
        for ce in walking.elements()
    } == {(key, a, b) for key, (a, b) in table.items()}
    meets = [n for n in range(1, len(left) + 1) if any(a[-1][0] < n for a, _ in table.values())]
    assert walking.prefix_length == (meets[0] if meets else None)
    assert walking.tail_reach == (
        max((a[0][0] for a, _ in table.values()), default=-1),
        max((b[0][0] for _, b in table.values()), default=-1),
    )
    assert walking.last_zero == max(
        (g for a, _ in table.values() for g, e in a if e == 0), default=-1
    )
    by_value = _Sweep(left, right, order="value").least
    by_witness = _Sweep(left, right, order="witness").least
    if not table:
        assert by_value is None and by_witness is None
    else:
        assert oracle.as_key(oracle.to_dict(by_value.block)) == min(
            table, key=lambda key: oracle.value_vector(dict(key))
        )
        assert by_witness.left_witness.terms == min(a for a, _ in table.values())
        for ce in (by_value, by_witness, walking.peak_element()):
            assert table[oracle.as_key(oracle.to_dict(ce.block))] == (
                ce.left_witness.terms, ce.right_witness.terms
            )
        assert peak(walking.peak_element().block) == walking.peak
    for g in range(len(left)):
        for choice in range(_UNUSED, k):
            expected = sum(dict(a).get(g, _UNUSED) == choice for a, _ in table.values())
            assert _Sweep(left, right, {g: choice}).count == expected
    # only "unused" survives a skipped left window, so forcing an exponent
    # walks it and every path dies there
    for g in [g for side, g in skipped_windows(left, right) if side == "left"]:
        assert _Sweep(left, right, {g: 0}).count == 0
        assert left.blocks[g].min_support in walked_positions(left, right, {g: 0})


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_resumed_skipping_sweep_matches_a_fresh_one(k, data):
    left, right = data.draw(interleaved_pairs(k))
    if data.draw(st.booleans()):
        left, right = right, left
    answers = sweep_answers(_Sweep(left, right))
    chained = None
    for m in range(len(left) + 1):
        kept = _Sweep(left.prefix(m), right)
        assert sweep_answers(_Sweep(left, right, resume=kept)) == answers
        chained = _Sweep(left.prefix(m), right, resume=chained)
        assert sweep_answers(chained) == sweep_answers(_Sweep(left.prefix(m), right))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_no_walked_position_lies_in_a_skipped_window(k, data):
    if data.draw(st.booleans()):
        left, right = data.draw(interleaved_pairs(k))
    else:
        left = data.draw(generator_lists(k))
        right = data.draw(st.one_of(generator_lists(k), partners(left)))
    g = data.draw(st.integers(0, len(left) - 1))
    force = data.draw(st.sampled_from([{}, {g: _UNUSED}, {g: 0}]))
    windows = [
        (left if side == "left" else right).blocks[h]
        for side, h in skipped_windows(left, right, force)
    ]
    walked = []
    sweep_steps = sweep_module._sweep_steps

    def recording(*args):
        for step in sweep_steps(*args):
            walked.append(step[0])
            yield step

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(sweep_module, "_sweep_steps", recording)
        # a fresh sweep, then one resumed past each prefix
        _Sweep(left, right, force)
        for m in range(len(left)):
            within = {h: c for h, c in force.items() if h < m}
            _Sweep(left, right, force, resume=_Sweep(left.prefix(m), right, within))
    for b in windows:
        assert not [pos for pos in walked if b.min_support <= pos <= b.max_support]


def test_resumed_sweep_skips_windows_around_its_kept_layer(monkeypatch):
    walked = []
    sweep_steps = sweep_module._sweep_steps

    def recording(*args):
        steps = list(sweep_steps(*args))
        walked.append([step[0] for step in steps])
        return iter(steps)

    monkeypatch.setattr(sweep_module, "_sweep_steps", recording)
    # the left windows [2, 2] and [9, 9] and the right windows [4, 4] and
    # [8, 8] hold no position of the other side
    left = seq(2, "0:2", "2:2", "6:2,7:1", "9:2", "11:2")
    right = seq(2, "0:2", "4:2", "6:2,7:1", "8:2", "11:2")
    fresh = _Sweep(left, right)
    assert walked == [[0, 6, 7, 11]]
    assert fresh.count == 3**3 - 2**3  # the three shared blocks at exponents 0 and 1
    for m, kept_walk, resumed_walk in (
        # the prefix's last window [2, 2] is skipped, so the kept layer is at 0
        (2, [0], [6, 7, 11]),
        # the windows at 8 and 9, just past the kept layer at 7, are skipped
        (3, [0, 6, 7], [11]),
        # the prefix's last window [9, 9] is skipped, so the kept layer is at 7
        (4, [0, 6, 7], [11]),
    ):
        walked.clear()
        kept = _Sweep(left.prefix(m), right)
        resumed = _Sweep(left, right, resume=kept)
        assert walked == [kept_walk, resumed_walk]
        assert sweep_answers(resumed) == sweep_answers(fresh)


def test_fresh_mark_survives_the_tail_marks():
    # the one common element {0:2,1:2} is 0^0 + 1^0 on the left and 0^0 on
    # the right: one move folds the least left index 0 and the last left
    # exponent 0 at generator 1, and neither fold disturbs the other
    left, right = seq(2, "0:2", "1:2"), seq(2, "0:2,1:2")
    assert (_Sweep(left, right).tail_reach, _Sweep(left, right).last_zero) == ((0, 0), 1)
    assert (_Sweep(right, left).tail_reach, _Sweep(right, left).last_zero) == ((0, 0), 0)
    # the one common element 0:2 uses left generator 0 at exponent 0, and
    # the left window [1, 1] holds no right position, so a resumed sweep
    # walks nothing and ends on the kept layer itself, not a copy, whose
    # folds still name generator 0 and not the appended generator 1
    left, right = seq(2, "0:2", "1:2"), seq(2, "0:2")
    kept = _Sweep(left.prefix(1), right)
    snapshot = copy.deepcopy(kept._kept)
    shared = _Sweep(left, right, resume=kept)
    assert shared._kept[1] is kept._kept[1]
    assert (shared.tail_reach, shared.last_zero) == ((0, 0), 0)
    assert kept._kept == snapshot
    assert sweep_answers(shared) == sweep_answers(_Sweep(left, right))


def test_resumed_sweep_walks_only_past_its_kept_layer(monkeypatch):
    walked = []
    sweep_steps = sweep_module._sweep_steps

    def recording(*args):
        steps = list(sweep_steps(*args))
        walked.append([step[0] for step in steps])
        return iter(steps)

    monkeypatch.setattr(sweep_module, "_sweep_steps", recording)
    evens = make_builtin("evens", 2).truncate(20001)
    left = seq(2, "0:2", "4:2", "8:2")
    kept = _Sweep(left.prefix(2), evens)
    # the evens windows [2, 2] and [6, 6] hold no left position
    assert walked[0] == [0, 4]
    walked.clear()
    assert sweep_answers(_Sweep(left, evens, resume=kept)) == sweep_answers(_Sweep(left, evens))
    # the resumed sweep's steps, then the fresh sweep's from position 0
    assert walked == [[8], [0, 4, 8]]
    # the right window [3, 6] widens the kept hull to 6, and the appended
    # block starts inside it: the kept layer is at 3, the left's last position
    right = seq(2, "0:2", "3:2,6:1")
    left = seq(2, "0:2", "3:2", "6:2")
    kept = _Sweep(left.prefix(2), right)
    walked.clear()
    resumed = _Sweep(left, right, resume=kept)
    assert walked[0] == [6]
    assert sweep_answers(resumed) == sweep_answers(_Sweep(left, right))
    assert (kept.count, resumed.count) == (2, 5)


def named_steps(producer, left, right, force, walked):
    """A step producer's steps, each steps id replaced by the steps it names."""
    joins = sweep_module._joins(left.k)
    return [
        (pos, lg, joins.pairs[pid], rg)
        for pos, lg, pid, rg in producer(left, right, force, walked, joins)
    ]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_sweep_steps_match_the_reference_producer(k, data):
    if data.draw(st.booleans()):
        left, right = data.draw(interleaved_pairs(k))
    else:
        left = data.draw(generator_lists(k))
        right = data.draw(st.one_of(generator_lists(k), partners(left)))
    if data.draw(st.booleans()):
        left, right = right, left
    g = data.draw(st.integers(0, len(left) - 1))
    force = data.draw(st.sampled_from([{}, {g: _UNUSED}, {g: 0}]))
    # fresh, then resumed past each prefix's kept position, then past every
    # position either side holds, where most resumes walk nothing
    starts = [None]
    for m in range(len(left) + 1):
        within = {h: c for h, c in force.items() if h < m}
        starts.append(_Sweep(left.prefix(m), right, within)._kept[0])
    starts += [pos for b in (*left, *right) for pos, _ in b.pairs]
    for walked in starts:
        assert named_steps(sweep_module._sweep_steps, left, right, force, walked) == (
            named_steps(oracle.sweep_steps, left, right, force, walked)
        )


def test_diagonal_sweeps_step_as_the_reference_producer(monkeypatch):
    sweep_steps, walks = sweep_module._sweep_steps, []

    def compared(left, right, force, walked, joins):
        steps = list(sweep_steps(left, right, force, walked, joins))
        named = [(pos, lg, joins.pairs[pid], rg) for pos, lg, pid, rg in steps]
        assert named == named_steps(oracle.sweep_steps, left, right, force, walked)
        walks.append((walked, len(steps)))
        return iter(steps)

    monkeypatch.setattr(sweep_module, "_sweep_steps", compared)
    names = ("example13_P", "example13_Q", "evens")
    for k in (2, 3):
        for order in itertools.permutations(names):
            members = [make_builtin(name, k) for name in order]
            run_diagonalization(validate_family(members, tail_index=1, horizon=21), cycles=2)
    # resumed sweeps that walk no position are among them
    assert any(walked is not None and not length for walked, length in walks)


def test_sweep_elements_build_only_the_images_they_use(monkeypatch):
    left = make_builtin("evens", 2).truncate(20001)
    right = make_builtin("example13_P", 2).truncate(20001)
    built = []
    monkeypatch.setattr(sweep_module, "tetris", lambda b, e: built.append(e) or tetris(b, e))
    sweep = _Sweep(left, right)
    assert sweep.valuation(20001).element_count == 1
    # one image per left term of the one element, which is rechecked once
    assert len(built) == len(sweep.peak_element().left_witness.terms)


@given(generator_lists(3))
def test_starred_span_is_tetris_closure(s):
    base = set(enumerate_span(s).blocks())
    closure = set()
    for block in base:
        for steps in range(s.k):
            image = tetris(block, steps)
            if not image.is_empty:
                closure.add(image)
    assert set(enumerate_span(s, starred=True).blocks()) == closure


def test_star_closure_with_minimum_rule():
    s = seq(2, "0:2", "1:2", "3:2,4:1")
    span = enumerate_span(s, starred=True)
    table = {witness.terms: block for block, witness in span.elements}
    sentinel = s.k
    for terms_a, block_a in table.items():
        for terms_b, block_b in table.items():
            exps_a = dict(terms_a)
            exps_b = dict(terms_b)
            merged = tuple(
                (i, min(exps_a.get(i, sentinel), exps_b.get(i, sentinel)))
                for i in sorted(set(exps_a) | set(exps_b))
            )
            combined = star(block_a, block_b)
            witness = membership_witness(combined, s, starred=True)
            assert witness is not None
            assert witness.terms == merged


def test_membership_of_random_subblocks_matches_oracle():
    rng = random.Random(20260818)
    for _ in range(40):
        k = rng.choice([2, 3])
        s = make_random_sequence(rng, k)
        gens = [oracle.to_dict(b) for b in s]
        table = oracle.span_witnesses(gens, k, True)
        probe = Subblock.from_pairs(
            k, {rng.randint(0, 13): rng.randint(1, k) for _ in range(rng.randint(0, 4))}.items()
        )
        witness = membership_witness(probe, s, starred=True)
        in_oracle = probe.is_empty or oracle.as_key(oracle.to_dict(probe)) in table
        assert (witness is not None) == in_oracle


def test_random_valuation_union_law():
    rng = random.Random(7)
    for _ in range(30):
        k = rng.choice([2, 3])
        a = [make_random_sequence(rng, k)[0] for _ in range(rng.randint(0, 3))]
        b = [make_random_sequence(rng, k)[0] for _ in range(rng.randint(0, 3))]
        union = valuation(a + b)
        va, vb = valuation(a), valuation(b)
        tops = [v.value for v in (va, vb) if v.value is not None]
        assert union.value == (max(tops) if tops else None)
