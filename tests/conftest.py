"""Shared fixtures, generators for randomized tests, and CLI runners."""

import os
import random
import subprocess
import sys

import fink
from fink import BlockSequence, Subblock, enumerate_span
from fink.cli import main

try:
    from hypothesis import settings

    settings.register_profile("suite", deadline=None, max_examples=60)
    settings.load_profile("suite")
except ImportError:  # pragma: no cover - hypothesis is a test dependency
    pass


def make_random_sequence(rng, k, max_generators=5, max_position=12):
    """Random ordered generator sequence with supports inside [0, max_position]."""
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
        blocks.append(Subblock.from_pairs(k, values.items()))
        pos += width + rng.randint(0, 1)
    if not blocks:
        blocks = [Subblock.from_pairs(k, [(0, k)])]
    return BlockSequence(k, blocks)


def make_overlapping_pair(rng, k, max_generators=5, max_position=12):
    """Pair of sequences whose spans intersect.

    The second sequence is assembled from span elements of the first, so
    every one of its generators is already a common block.
    """
    left = make_random_sequence(rng, k, max_generators, max_position)
    pool = list(enumerate_span(left).blocks())
    rng.shuffle(pool)
    picked = []
    for candidate in pool:
        if all(b.before(candidate) or candidate.before(b) for b in picked):
            picked.append(candidate)
        if len(picked) >= max_generators:
            break
    picked.sort(key=lambda b: b.min_support)
    right = BlockSequence(k, picked) if picked else left
    return left, right


def run(capsys, *argv):
    """``cli.main``'s exit code and what it wrote to stdout and stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, optimize=False):
    """``python [-O] -m fink`` with the package under test on the path."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fink.__file__)))
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "fink", *argv], capture_output=True, text=True, env=env
    )
