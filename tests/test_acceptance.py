"""Acceptance gate: seven end-to-end criteria with timing budgets.

Each test prints one PASS/FAIL line.  Budgets are asserted with
``time.perf_counter`` around the criterion body; all numeric expectations
are exact (no tolerances).
"""

import functools
import itertools
import random
import time
from contextlib import contextmanager

import oracle
from conftest import make_overlapping_pair, make_random_sequence
from fink import (
    Subblock,
    add,
    decomposition_graph,
    enumerate_span,
    evaluate,
    extract_intertwined,
    intersect_spans,
    is_intertwined,
    make_builtin,
    membership_witness,
    peak,
    run_diagonalization,
    smallness_check,
    star,
    star_split,
    validate_family,
    valuation,
)
from fink.span import CommonElement


@contextmanager
def criterion(number, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} took {elapsed:.2f}s, over the {limit_seconds}s budget"
    )
    print(f"criterion {number}: PASS ({elapsed:.2f}s < {limit_seconds}s)")


def interlocked_mix(m):
    return Subblock.from_pairs(2, [(0, 2)] + [(2 * n - 1, 1) for n in range(1, m + 1)])


@functools.lru_cache(maxsize=None)
def seeded_instances():
    rng = random.Random(20260818)
    return tuple(make_random_sequence(rng, rng.choice([2, 3])) for _ in range(200))


@functools.lru_cache(maxsize=None)
def seeded_pairs():
    rng = random.Random(1729)
    return tuple(make_overlapping_pair(rng, rng.choice([2, 3])) for _ in range(100))


def test_criterion_1_interlocked_example_reproduction():
    with criterion(1, 5.0):
        p_stream = make_builtin("example13_P", 2)
        q_stream = make_builtin("example13_Q", 2)
        left = p_stream.truncate(21)
        right = q_stream.truncate(21)
        common = intersect_spans(left, right)
        blocks = {ce.block for ce in common}
        # every mixed block s_m up to m = 10 appears in the intersection
        for m in range(1, 11):
            assert interlocked_mix(m) in blocks
        assert len(common) >= 10
        # the only full-value position across the whole intersection is 0
        bound = valuation((ce.block for ce in common), horizon=21)
        assert bound.value == 0
        assert bound.element_count == len(common)
        cert = smallness_check(p_stream, q_stream, tail_index=1, horizon=21)
        assert cert.verdict == "empty_at_horizon"


def test_criterion_2_membership_matches_enumeration():
    with criterion(2, 30.0):
        rng = random.Random(90125)
        for seq in seeded_instances():
            for starred in (False, True):
                enum = enumerate_span(seq, starred=starred)
                lookup = set()
                for block, witness in enum.elements:
                    found = membership_witness(block, seq, starred=starred)
                    assert found is not None
                    assert evaluate(seq, found) == block
                    lookup.add(block)
                probe = Subblock.from_pairs(
                    seq.k,
                    {
                        rng.randint(0, 12): rng.randint(1, seq.k)
                        for _ in range(rng.randint(0, 5))
                    }.items(),
                )
                claimed = membership_witness(probe, seq, starred=starred)
                if probe.is_empty:
                    expected = enum.includes_empty
                else:
                    expected = probe in lookup
                assert (claimed is not None) == expected
                if claimed is not None:
                    assert evaluate(seq, claimed) == probe


def _unary(k, fields):
    """Pack (field, value) pairs with values in 0..k into one integer.

    Field p holds ``(1 << v) - 1`` in k bits, so the packing is one-to-one,
    ``|`` is the pointwise maximum and ``&`` the pointwise minimum.
    """
    packed = 0
    for p, v in fields:
        packed |= ((1 << v) - 1) << (p * k)
    return packed


def _closure_table(seq, starred):
    """Packed value rows and exponent rows (sentinel k = generator unused)."""
    k = seq.k
    vals, exps, table = [], [], {}
    for block, witness in enumerate_span(seq, starred=starred).elements:
        row = _unary(k, block.items())
        exponents = dict(witness.terms)
        evec = _unary(k, ((i, exponents.get(i, k)) for i in range(len(seq))))
        vals.append(row)
        exps.append(evec)
        table[evec] = row
    return vals, exps, table


def test_criterion_3_star_closure_and_minimum_rule():
    with criterion(3, 30.0):
        rng = random.Random(55)
        for seq in seeded_instances():
            # exhaustive over the span: star lands in the span and its
            # witness exponents are the pointwise minimum of the inputs
            vals, exps, table = _closure_table(seq, starred=False)
            for i in range(len(vals)):
                vi, ei = vals[i], exps[i]
                for j in range(i, len(vals)):
                    expected = table.get(ei & exps[j])
                    assert expected is not None
                    assert vi | vals[j] == expected
            # sampled pairs over the starred span, same law
            vals, exps, table = _closure_table(seq, starred=True)
            if not vals:
                continue
            for _ in range(100):
                i = rng.randrange(len(vals))
                j = rng.randrange(len(vals))
                expected = table.get(exps[i] & exps[j])
                assert expected is not None
                assert vals[i] | vals[j] == expected


def test_criterion_4_extraction_suite():
    with criterion(4, 60.0):
        for left, right in seeded_pairs():
            result = extract_intertwined(left, right)  # MinimalityViolation = FAIL
            length = result.prefix_length
            element = result.element
            gens_r = [oracle.to_dict(b) for b in right]
            hits = set()
            for n in range(1, length + 1):
                gens_l = [oracle.to_dict(b) for b in left.prefix(n)]
                hits = oracle.intersection_elements(gens_l, gens_r, left.k)
                assert bool(hits) == (n == length)
            assert oracle.as_key(oracle.to_dict(element.block)) in hits
            assert is_intertwined(
                element.block,
                element.left_witness,
                element.right_witness,
                left.prefix(length),
                right,
            )
            for ce in intersect_spans(left, right):
                graph = decomposition_graph(
                    ce.block, ce.left_witness, ce.right_witness, left, right
                )
                assert {i for i, _ in graph.edges} == set(graph.left)
                assert {j for _, j in graph.edges} == set(graph.right)
                for (a, b), (a2, b2) in itertools.combinations(graph.edges, 2):
                    if a < a2:
                        assert b <= b2
                    elif a2 < a:
                        assert b2 <= b


def test_criterion_5_star_split_suite():
    with criterion(5, 60.0):
        for left, right in seeded_pairs():
            extracted = extract_intertwined(left, right).element.block
            anchor = CommonElement(
                extracted,
                membership_witness(extracted, left),
                membership_witness(extracted, right),
            )
            for ce in intersect_spans(left, right):
                below, above = star_split(anchor, ce, left, right)  # ClaimViolation = FAIL
                merged = star(extracted, ce.block)
                assert add(add(below, extracted), above) == merged
                assert below.before(extracted) and extracted.before(above)
                for part in (below, above):
                    if part.is_empty:
                        continue
                    assert membership_witness(part, left, starred=True) is not None
                    assert membership_witness(part, right, starred=True) is not None
                if peak(ce.block) > peak(extracted):
                    assert above.is_block
                    assert peak(above) == peak(merged)


def test_criterion_6_diagonalization_end_to_end():
    with criterion(6, 60.0):
        members = [
            make_builtin("example13_P", 2),
            make_builtin("example13_Q", 2),
            make_builtin("evens", 2),
        ]
        family = validate_family(members, tail_index=1, horizon=21)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert family.bounds[i][j].value == 0
        single = run_diagonalization(family, cycles=1)  # ClaimViolation = FAIL
        assert len(single.steps) == 3
        double = run_diagonalization(family, cycles=2)
        assert len(double.steps) == 6
        for trace in (single, double):
            for step in trace.steps:
                for check in step.checks:
                    assert check.before.value == check.after.value
        assert [v.value for v in single.finals] == [0, 3, 8]
        assert [v.value for v in double.finals] == [11, 15, 20]


def test_criterion_7_valuation_union_law():
    with criterion(7, 5.0):
        rng = random.Random(246)
        for _ in range(100):
            k = rng.choice([2, 3])
            parts = []
            for _ in range(rng.randint(0, 4)):
                seq = make_random_sequence(rng, k)
                part = [seq[rng.randrange(len(seq))] for _ in range(rng.randint(0, 3))]
                parts.append(part)
            union = [block for part in parts for block in part]
            expected = [
                v.value
                for v in (valuation(part) for part in parts)
                if v.value is not None
            ]
            got = valuation(union)
            if expected:
                assert got.value == max(expected)
            else:
                assert got.value is None
            # the empty set is neutral on either side of a union
            assert valuation(union + []).value == got.value
            assert valuation([] + union).value == got.value
