"""The benchmark's workloads: seeded inputs, one round of ops, answer checks.

A workload's set-up returns one *round*: a list of ops in an order the seed
picks.  A run repeats whole rounds, so every run of a workload covers the
same mix of cheap and expensive ops whatever the seed; per-op cost differs
by up to 1.5x between member orders (family_diag) and by 100x between pairs
(seeded_queries), and a partial round would move the medians with the seed.

Each op's ``run`` calls the library and returns its answers; ``check``
compares them, outside the timed region, with expected values or with the
brute-force reference in ``tests/oracle.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


# --- family_diag ----------------------------------------------------------

FAMILY = ("example13_P", "example13_Q", "evens")

# Final valuations of run_diagonalization(cycles=2) per member order at
# tail index 1, horizon 21.  The default order is acceptance criterion 6;
# the other five orders were recorded at the commit that added this file.
FAMILY_FINALS = {
    ("example13_P", "example13_Q", "evens"): (11, 15, 20),
    ("example13_P", "evens", "example13_Q"): (11, 14, 17),
    ("example13_Q", "example13_P", "evens"): (9, 13, 16),
    ("example13_Q", "evens", "example13_P"): (11, 16, 19),
    ("evens", "example13_P", "example13_Q"): (12, 15, 19),
    ("evens", "example13_Q", "example13_P"): (10, 13, 17),
}


def family_diag(api, oracle, rng, ctx):
    """``fink diag --n 1 --horizon 21 --cycles 2`` in-process, all six member orders."""
    orders = list(itertools.permutations(FAMILY))
    rng.shuffle(orders)
    ops = []
    for order in orders:
        members = [api.make_builtin(name, 2) for name in order]

        def run(members=members):
            family = api.validate_family(members, tail_index=1, horizon=21)
            return family, api.run_diagonalization(family, cycles=2)

        def check(result, order=order):
            family, trace = result
            bounds = [
                family.bounds[i][j].value for i in range(3) for j in range(3) if i != j
            ]
            stable = all(c.before.value == c.after.value for s in trace.steps for c in s.checks)
            finals = tuple(v.value for v in trace.finals)
            return (
                bounds == [0] * 6 and len(trace.steps) == 6 and stable
                and finals == FAMILY_FINALS[order]
            )

        ops.append(Op(",".join(order), run, check))
    return ops


# --- seeded_queries -------------------------------------------------------

# Same generators as make_random_sequence / make_overlapping_pair in
# tests/conftest.py, kept here so that edits to the test fixtures cannot
# change the benchmark's inputs.  The partner step is split out so a left
# sequence can be rejected before its span is enumerated.


def make_random_sequence(api, rng, k, max_generators=5, max_position=12):
    blocks = []
    count = rng.randint(1, max_generators)
    pos = rng.randint(0, 1)
    for _ in range(count):
        width = rng.randint(1, 3)
        if pos + width - 1 > max_position:
            break
        support = sorted(rng.sample(range(pos, pos + width), rng.randint(1, width)))
        values = {p: rng.randint(1, k) for p in support}
        values[rng.choice(support)] = k
        blocks.append(api.Subblock.from_pairs(k, values.items()))
        pos += width + rng.randint(0, 1)
    if not blocks:
        blocks = [api.Subblock.from_pairs(k, [(0, k)])]
    return api.BlockSequence(k, blocks)


def overlapping_partner(api, rng, left, span, max_generators=5):
    """``make_overlapping_pair``'s partner of ``left``, drawn from ``span``,
    the list of ``left``'s span blocks."""
    pool = list(span)
    rng.shuffle(pool)
    picked = []
    for candidate in pool:
        if all(b.before(candidate) or candidate.before(b) for b in picked):
            picked.append(candidate)
        if len(picked) >= max_generators:
            break
    picked.sort(key=lambda b: b.min_support)
    return api.BlockSequence(left.k, picked) if picked else left


# Pairs per (k, left generator count, right generator count) cell, the
# same for every seed: the cost of one pair grows about (k+1)^N in both
# counts, so a pool drawn without quotas moves its median latency by ~15%
# from seed to seed, and quotas on k and the left count alone by ~8%.  The
# counts follow the generator's own frequencies over 4800 pairs; cells
# rarer than one pair in 600 are left out.
PAIRS_PER_CELL = {
    (2, 1, 1): 60,
    (2, 2, 1): 36, (2, 2, 2): 24,
    (2, 3, 1): 32, (2, 3, 2): 27, (2, 3, 3): 7,
    (2, 4, 1): 37, (2, 4, 2): 30, (2, 4, 3): 10, (2, 4, 4): 1,
    (2, 5, 1): 15, (2, 5, 2): 15, (2, 5, 3): 5, (2, 5, 4): 1,
    (3, 1, 1): 60,
    (3, 2, 1): 43, (3, 2, 2): 17,
    (3, 3, 1): 44, (3, 3, 2): 18, (3, 3, 3): 4,
    (3, 4, 1): 47, (3, 4, 2): 28, (3, 4, 3): 3,
    (3, 5, 1): 23, (3, 5, 2): 11, (3, 5, 3): 2,
}


# Partners drawn for one left sequence before it is dropped: the span is
# enumerated once per left, so the set-up time hardly depends on how many
# draws the rare cells take.
PARTNER_TRIES = 20


def seeded_pool(api, rng):
    quota = dict(PAIRS_PER_CELL)
    pool = []
    while any(quota.values()):
        k = rng.choice([2, 3])
        left = make_random_sequence(api, rng, k)
        if not any(quota[c] for c in quota if c[:2] == (k, len(left))):
            continue
        span = list(api.enumerate_span(left).blocks())
        for _ in range(PARTNER_TRIES):
            right = overlapping_partner(api, rng, left, span)
            cell = (k, len(left), len(right))
            if quota.get(cell, 0):
                quota[cell] -= 1
                pool.append((left, right))
                break
    rng.shuffle(pool)
    return pool


def _gens(oracle, seq):
    return [oracle.to_dict(b) for b in seq]


def _evaluates_to(oracle, gens, terms, block):
    total = oracle.add_dicts([oracle.tetris_dict(gens[i], e) for i, e in terms])
    return total == oracle.to_dict(block)


def _query_suite(api, left, right):
    listings = []
    for seq in (left, right):
        for starred in (False, True):
            enum = api.enumerate_span(seq, starred=starred)
            found = [api.membership_witness(b, seq, starred=starred) for b, _ in enum]
            listings.append((seq, starred, enum, found))
    common = api.intersect_spans(left, right)
    extracted = api.extract_intertwined(left, right)
    block = extracted.element.block
    anchor = api.CommonElement(
        block, api.membership_witness(block, left), api.membership_witness(block, right)
    )
    graphs = [
        api.decomposition_graph(ce.block, ce.left_witness, ce.right_witness, left, right)
        for ce in common
    ]
    splits = [api.star_split(anchor, ce, left, right) for ce in common]
    return listings, common, extracted, anchor, graphs, splits


def _suite_digest(result):
    listings, common, extracted, anchor, graphs, splits = result
    text = [
        f"{b.render_body()}<{w.render()}<{got.render()}"
        for _, _, enum, found in listings for (b, w), got in zip(enum, found)
    ]
    text += [
        f"{ce.block.render_body()}<{ce.left_witness.render()}|{ce.right_witness.render()}"
        for ce in common + (extracted.element, anchor)
    ]
    text.append(str(extracted.prefix_length))
    text += [repr(graph.edges) for graph in graphs]
    text += [f"{below.render_body()}/{above.render_body()}" for below, above in splits]
    return hashlib.sha256("\n".join(text).encode()).digest()


def _check_suite(oracle, left, right, expected, result):
    """Brute-force check on a pair's first op; later ops must repeat its answers."""
    digest = _suite_digest(result)
    if expected:
        return digest == expected["digest"]
    if _agrees_with_oracle(oracle, left, right, result):
        expected["digest"] = digest
        return True
    return False


def _agrees_with_oracle(oracle, left, right, result):
    listings, common, extracted, anchor, graphs, splits = result
    k = left.k
    gens_l, gens_r = _gens(oracle, left), _gens(oracle, right)
    spans = [
        oracle.span_elements(gens, k, starred)
        for gens in (gens_l, gens_r) for starred in (False, True)
    ]
    n = extracted.prefix_length
    shorter = oracle.intersection_elements(gens_l[: n - 1], gens_r, k)
    prefix = oracle.intersection_elements(gens_l[:n], gens_r, k)
    for (seq, starred, enum, found), elements in zip(listings, spans):
        gens = _gens(oracle, seq)
        if {oracle.as_key(oracle.to_dict(b)) for b, _ in enum} != elements:
            return False
        for (b, witness), got in zip(enum, found):
            if got != witness or not _evaluates_to(oracle, gens, got.terms, b):
                return False
    common_keys = {oracle.as_key(oracle.to_dict(ce.block)) for ce in common}
    if common_keys != oracle.intersection_elements(gens_l, gens_r, k):
        return False
    for ce in common + (anchor,):
        if not (
            _evaluates_to(oracle, gens_l, ce.left_witness.terms, ce.block)
            and _evaluates_to(oracle, gens_r, ce.right_witness.terms, ce.block)
        ):
            return False
    # the extraction prefix is minimal and holds the anchor
    if shorter or oracle.as_key(oracle.to_dict(anchor.block)) not in prefix:
        return False
    for ce, graph in zip(common, graphs):
        if set(graph.left) != set(ce.left_witness.indices):
            return False
        if set(graph.right) != set(ce.right_witness.indices):
            return False
    p = oracle.to_dict(anchor.block)
    for ce, (below, above) in zip(common, splits):
        parts = [oracle.to_dict(below), p, oracle.to_dict(above)]
        if oracle.add_dicts(parts) != oracle.star_dicts(p, oracle.to_dict(ce.block)):
            return False
    return True


def seeded_queries(api, oracle, rng, ctx):
    """The full query suite, one seeded overlapping pair per op."""
    ops = []
    for left, right in seeded_pool(api, rng):
        expected = {}

        def run(left=left, right=right):
            return _query_suite(api, left, right)

        def check(result, left=left, right=right, expected=expected):
            return _check_suite(oracle, left, right, expected, result)

        ops.append(Op(f"k={left.k} n={len(left)},{len(right)}", run, check))
    return ops


# --- wide_horizon ---------------------------------------------------------

WIDE_HORIZON = 2001


def _periodic_k3(api, rng):
    # one to three blocks, block i inside positions {2i, 2i+1}, so about
    # one block per two positions: ~1000 generators at H=2001, like the
    # builtin streams
    base = []
    count = rng.randint(1, 3)
    for i in range(count):
        values = {p: rng.randint(1, 3) for p in (2 * i, 2 * i + 1) if rng.random() < 0.6}
        values = values or {2 * i: 3}
        values[rng.choice(sorted(values))] = 3
        base.append(api.Subblock.from_pairs(3, values.items()))
    return api.PeriodicStream(base, 2 * count)


def wide_horizon(api, oracle, rng, ctx):
    """Truncate, evaluate, member, valuation and star on one stream at H=2001."""
    streams = [api.make_builtin(name, 2) for name in FAMILY] + [_periodic_k3(api, rng)]
    rng.shuffle(streams)
    ops = []
    for stream in streams:
        # exponent per generator index, one index forced to 0; more codes
        # than any stream here has generators below the horizon
        exponents = [rng.randrange(stream.k) for _ in range(WIDE_HORIZON)]
        exponents[rng.randrange(WIDE_HORIZON // 2)] = 0
        expected = []

        def run(stream=stream, exponents=exponents):
            seq = stream.truncate(WIDE_HORIZON)
            comb = api.Combination(tuple(enumerate(exponents[: len(seq)])))
            block = api.evaluate(seq, comb)
            witness = api.membership_witness(block, seq)
            value = api.valuation(seq.blocks)
            stars = [api.star(block, seq[i]) for i in range(0, len(seq), 50)]
            return seq, comb, block, witness, value, stars

        def check(result, stream=stream, expected=expected):
            seq, comb, block, witness, value, stars = result
            gens = _gens(oracle, seq)
            if not expected:
                # the stream's blocks below the horizon, once per stream
                n = 0
                while stream.block(n).max_support <= WIDE_HORIZON:
                    expected.append(oracle.to_dict(stream.block(n)))
                    n += 1
            if gens != expected:
                return False
            if witness != comb or not _evaluates_to(oracle, gens, comb.terms, block):
                return False
            if value.value != max(oracle.peak_dict(g, seq.k) for g in gens):
                return False
            b = oracle.to_dict(block)
            return all(
                oracle.to_dict(s) == oracle.star_dicts(b, gens[i])
                for s, i in zip(stars, range(0, len(seq), 50))
            )

        ops.append(Op(stream.describe(), run, check))
    return ops


# --- cli_oneshot ----------------------------------------------------------

CLI_FILES = {
    "P.seq": "k=2\n0:2\n1:2\n3:2\n",
    "Q.seq": "k=2\n0:2\n1:2,2:1\n3:2,4:1\n",
    "P2.seq": "k=2\n0:2\n1:2\n",
    "S.blocks": "k=2\n0:2,1:1\n3:2\n",
}

# (argv, stdout, exit code): the README examples, plus `small` at H=15.
CLI_CASES = (
    (["eval", "--seq", "P.seq", "--comb", "0^0 + 1^1 + 2^1"], "0:2,1:1,3:1\n", 0),
    (["member", "--seq", "P.seq", "--block", "0:2,1:1,3:1"], "yes 0^0 + 1^1 + 2^1\n", 0),
    (["member", "--seq", "P.seq", "--block", "0:1"], "no\n", 2),
    (["member", "--seq", "P.seq", "--block", "0:1", "--starred"], "yes 0^1\n", 0),
    (
        ["span", "--seq", "P2.seq"],
        "0:2 <- 0^0\n0:2,1:2 <- 0^0 + 1^0\n0:2,1:1 <- 0^0 + 1^1\n"
        "0:1,1:2 <- 0^1 + 1^0\n1:2 <- 1^0\n",
        0,
    ),
    (
        ["intersect", "--P", "P.seq", "--Q", "Q.seq"],
        "0:2 <- 0^0 | 0^0\n0:2,1:1 <- 0^0 + 1^1 | 0^0 + 1^1\n"
        "0:2,1:1,3:1 <- 0^0 + 1^1 + 2^1 | 0^0 + 1^1 + 2^1\n"
        "0:2,3:1 <- 0^0 + 2^1 | 0^0 + 2^1\n",
        0,
    ),
    (["valuation", "--blocks", "S.blocks"], "F=3 count=2 horizon=3\n", 0),
    (
        ["graph", "--P", "P.seq", "--Q", "Q.seq", "--block", "0:2,1:1,3:1"],
        "L0 - R0\nL1 - R1\nL2 - R2\n",
        0,
    ),
    (["intertwined", "--P", "P.seq", "--Q", "Q.seq", "--block", "0:2"], "yes\n", 0),
    (["extract", "--P", "P.seq", "--Q", "Q.seq"], "N=1 block=0:2 P=[0^0] Q=[0^0]\n", 0),
    (
        ["split", "--P", "P.seq", "--Q", "Q.seq", "--anchor", "0:2", "--other", "0:2,1:1,3:1"],
        "s=- r=1:1,3:1\n",
        0,
    ),
    (
        ["small", "--P", "example13_P", "--Q", "example13_Q", "--k", "2", "--n", "1",
         "--horizon", "15"],
        "empty_at_horizon\n",
        0,
    ),
    (
        ["diag", "--member", "example13_P", "--member", "example13_Q", "--member", "evens",
         "--k", "2", "--n", "1", "--horizon", "15"],
        "step=0 q=k=2|0:2 J=- checks=[]\n"
        "step=1 q=k=2|3:2,4:1 J=1 checks=[0:0->0]\n"
        "step=2 q=k=2|8:2 J=3 checks=[0:0->0,1:3->3]\n",
        0,
    ),
)


def cli_oneshot(api, oracle, rng, ctx):
    """One ``python -m fink`` process per op; in-process ``cli.main`` when traced."""
    cli = importlib.import_module("fink.cli")
    for name, text in CLI_FILES.items():
        with open(os.path.join(ctx.workdir, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    cases = list(CLI_CASES)
    rng.shuffle(cases)
    env = dict(os.environ, PYTHONPATH=ctx.src)
    ops = []
    for argv, stdout, code in cases:
        argv = [os.path.join(ctx.workdir, a) if a in CLI_FILES else a for a in argv]
        if ctx.in_process:

            def run(argv=argv):
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    status = cli.main(argv)
                return out.getvalue().encode(), status

        else:

            def run(argv=argv):
                done = subprocess.run(
                    [sys.executable, "-m", "fink", *argv],
                    env=env, capture_output=True, check=False,
                )
                return done.stdout, done.returncode

        def check(result, stdout=stdout.encode(), code=code):
            return result == (stdout, code)

        ops.append(Op(argv[0], run, check))
    return ops


WORKLOADS = {
    "family_diag": family_diag,
    "seeded_queries": seeded_queries,
    "wide_horizon": wide_horizon,
    "cli_oneshot": cli_oneshot,
}


def make_round(name, api, oracle, seed, ctx):
    return WORKLOADS[name](api, oracle, random.Random(seed), ctx)
