"""Lazy streams: builtins, periodic/explicit kinds, truncation."""

import random
from pathlib import Path

import pytest

from conftest import make_random_sequence
from fink import (
    BUILTIN_NAMES,
    BlockSequence,
    BuiltinStream,
    EnumerationCapExceeded,
    ExplicitStream,
    InvalidSequence,
    ParseError,
    PastEnd,
    PeriodicStream,
    Stream,
    Subblock,
    make_builtin,
    membership_witness,
    parse_stream_spec,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def blk(k, pairs):
    return Subblock.from_pairs(k, pairs)


def seq(k, *bodies):
    return BlockSequence(k, [Subblock.parse_body(k, b) for b in bodies])


class TestBuiltins:
    def test_registry(self):
        assert BUILTIN_NAMES == ("evens", "example13_P", "example13_Q")
        with pytest.raises(ParseError):
            make_builtin("nope", 2)

    @pytest.mark.parametrize("k", [0, -3])
    def test_nonpositive_level_is_named(self, k):
        for name in BUILTIN_NAMES:
            with pytest.raises(ParseError, match=f"^level must be positive, got {k}$"):
                make_builtin(name, k)

    def test_interlocked_singletons(self):
        p = make_builtin("example13_P", 2)
        assert p.block(0) == blk(2, [(0, 2)])
        assert p.block(1) == blk(2, [(1, 2)])
        assert p.block(3) == blk(2, [(5, 2)])

    def test_interlocked_tagged(self):
        q = make_builtin("example13_Q", 2)
        assert q.block(0) == blk(2, [(0, 2)])
        assert q.block(2) == blk(2, [(3, 2), (4, 1)])

    def test_even_singletons(self):
        e = make_builtin("evens", 3)
        assert e.block(0) == blk(3, [(0, 3)])
        assert e.block(5) == blk(3, [(10, 3)])

    def test_level_parametrizes_the_peak(self):
        q = make_builtin("example13_Q", 3)
        assert q.block(1) == blk(3, [(1, 3), (2, 1)])

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_blocks_stay_ordered(self, name):
        stream = make_builtin(name, 2)
        for n in range(49):
            assert stream.block(n).before(stream.block(n + 1))

    def test_negative_index(self):
        with pytest.raises(IndexError):
            make_builtin("evens", 2).block(-1)


class TestTailAndTruncate:
    def test_truncate_keeps_supports_within_horizon(self):
        p = make_builtin("example13_P", 2)
        assert p.truncate(4) == seq(2, "0:2", "1:2", "3:2")
        assert p.truncate(0) == seq(2, "0:2")

    def test_truncate_skips_straddling_block(self):
        q = make_builtin("example13_Q", 2)
        # the block {9:2,10:1} pokes past horizon 9 and is dropped
        assert len(q.truncate(9)) == 5
        assert q.truncate(9)[4] == blk(2, [(7, 2), (8, 1)])

    def test_truncate_can_be_empty(self):
        s = PeriodicStream([blk(2, [(3, 2)])], shift=2)
        assert len(s.truncate(2)) == 0
        assert len(s.truncate(3)) == 1

    def test_truncate_refuses_more_than_two_to_the_sixteen_blocks(self):
        evens = make_builtin("evens", 2)
        assert len(evens.truncate(2 * (2**16 - 1))) == 2**16
        with pytest.raises(EnumerationCapExceeded):
            evens.truncate(2 * 2**16)

    def test_refused_truncation_builds_no_block(self, monkeypatch):
        evens = make_builtin("evens", 2)
        # count every block built, one at a time or in a batch
        built = []
        raw, raw_many = Subblock._raw, Subblock._raw_many

        def counted_many(cls, k, pairs, count):
            made = raw_many(k, pairs, count)
            built.extend(p.pairs for p in made)
            return made

        counted = classmethod(lambda cls, k, pairs: built.append(pairs) or raw(k, pairs))
        monkeypatch.setattr(Subblock, "_raw", counted)
        monkeypatch.setattr(Subblock, "_raw_many", classmethod(counted_many))
        with pytest.raises(EnumerationCapExceeded):
            evens.truncate(10**18)
        assert built == []
        assert len(evens.truncate(4)) == 3
        assert built == [((0, 2),), ((2, 2),), ((4, 2),)]


class TestExplicit:
    def test_finite_access(self):
        s = ExplicitStream(seq(2, "0:2", "2:2,3:1"))
        assert s.block(1) == blk(2, [(2, 2), (3, 1)])
        with pytest.raises(PastEnd):
            s.block(2)

    def test_truncate_stops_at_end(self):
        s = ExplicitStream(seq(2, "0:2", "2:2"))
        assert s.truncate(50) == seq(2, "0:2", "2:2")


class TestPeriodic:
    def test_single_template(self):
        s = PeriodicStream([blk(2, [(0, 2)])], shift=2)
        for n in range(8):
            assert s.block(n) == make_builtin("evens", 2).block(n)

    def test_multi_template(self):
        s = PeriodicStream([blk(2, [(0, 2)]), blk(2, [(1, 2), (2, 1)])], shift=4)
        assert s.block(2) == blk(2, [(4, 2)])
        assert s.block(3) == blk(2, [(5, 2), (6, 1)])

    def test_shift_must_clear_the_base_width(self):
        base = [blk(2, [(0, 2)]), blk(2, [(2, 2)])]
        with pytest.raises(InvalidSequence):
            PeriodicStream(base, shift=2)
        PeriodicStream(base, shift=3)

    def test_empty_base_rejected(self):
        with pytest.raises(InvalidSequence):
            PeriodicStream([], shift=1)

    def test_head_precedes_the_base(self):
        s = Stream(2, [blk(2, [(0, 2)]), blk(2, [(1, 2), (2, 1)])], [blk(2, [(4, 2)])], 3)
        assert [s.block(n) for n in range(4)] == [
            blk(2, [(0, 2)]), blk(2, [(1, 2), (2, 1)]), blk(2, [(4, 2)]), blk(2, [(7, 2)]),
        ]
        with pytest.raises(InvalidSequence):
            Stream(2, [blk(2, [(4, 2)])], [blk(2, [(4, 2)])], 3)

    def test_blocks_stay_ordered(self):
        s = PeriodicStream([blk(3, [(0, 3), (1, 1)])], shift=2)
        for n in range(30):
            assert s.block(n).before(s.block(n + 1))


class TestSpecParsing:
    def test_builtin_spec(self):
        s = parse_stream_spec("kind=builtin name=evens k=2")
        assert isinstance(s, BuiltinStream)
        assert s.block(1) == blk(2, [(2, 2)])

    def test_periodic_spec(self):
        s = parse_stream_spec("kind=periodic shift=3 k=2 base=0:2;1:2,2:1")
        assert isinstance(s, PeriodicStream)
        assert s.block(2) == blk(2, [(3, 2)])

    def test_explicit_spec_reads_injected_file(self):
        files = {"demo.seq": "k=2\n0:2\n1:2\n"}
        s = parse_stream_spec("kind=explicit file=demo.seq", read_file=files.get)
        assert isinstance(s, ExplicitStream)
        assert s.block(1) == blk(2, [(1, 2)])

    def test_describe_round_trips(self):
        for text in (
            "kind=builtin name=example13_P k=2",
            "kind=periodic shift=2 k=3 base=0:3,1:1",
        ):
            stream = parse_stream_spec(text)
            again = parse_stream_spec(stream.describe())
            assert again.describe() == stream.describe()
            assert again.block(3) == stream.block(3)

    def test_readme_spec_block_parses(self):
        text = README.read_text(encoding="utf-8")
        section = text[text.index("### Stream spec") :]
        block = section[section.index("```") + 3 :]
        lines = block[block.index("\n") + 1 : block.index("```")].splitlines()
        assert [line.split()[0] for line in lines] == [
            "kind=builtin", "kind=periodic", "kind=explicit",
        ]
        files = {"path/to/file.seq": "k=2\n0:2\n1:2\n"}
        for line in lines:
            assert parse_stream_spec(line, read_file=files.get).k == 2

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_stream_spec("kind=builtin name=evens")  # no k
        with pytest.raises(ParseError):
            parse_stream_spec("kind=weird k=2")
        with pytest.raises(ParseError):
            parse_stream_spec("kind=periodic shift=x k=2 base=0:2")
        with pytest.raises(ParseError):
            parse_stream_spec("kind=builtin kind=builtin name=evens k=2")
        with pytest.raises(ParseError):
            parse_stream_spec("builtin evens")


def walked(stream, horizon):
    """The truncation found block by block: stop at the first block past the
    horizon or at the end of a finite stream."""
    blocks = []
    try:
        while stream.block(len(blocks)).max_support <= horizon:
            blocks.append(stream.block(len(blocks)))
    except PastEnd:
        pass
    return BlockSequence(stream.k, blocks)


def seeded_streams(seed, count=40):
    """Periodic streams with and without a head, and explicit ones, k 1..4."""
    rng = random.Random(seed)
    streams = []
    for _ in range(count):
        k = rng.randint(1, 4)
        blocks = make_random_sequence(rng, k, max_generators=6).blocks
        split = rng.randrange(len(blocks))
        head, base = blocks[:split], blocks[split:]
        shift = base[-1].max_support - base[0].min_support + rng.randint(1, 4)
        streams.append(Stream(k, head, base, shift))
        streams.append(PeriodicStream(base, shift))
        streams.append(ExplicitStream(BlockSequence(k, blocks)))
    return streams


def assert_truncations_match_the_walk(stream):
    # from below the first block to several periods past the head
    n = len(stream.head) + 4 * len(stream.base)
    last = stream.block(n).max_support if stream.base else stream.head[-1].max_support + 3
    for horizon in range(-1, last + 2):
        assert_truncation_is_valid(stream, horizon)


def assert_truncation_is_valid(stream, horizon):
    """The truncation equals the block walk, and its blocks pass the full
    checks of the validating constructor it skips."""
    truncation = stream.truncate(horizon)
    assert truncation == walked(stream, horizon)
    assert BlockSequence(stream.k, truncation.blocks) == truncation


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_truncate_matches_the_block_walk(name, k):
    # at k=1, example13_Q's value-1 tag equals the level
    assert_truncations_match_the_walk(make_builtin(name, k))


@pytest.mark.parametrize("seed", range(3))
def test_seeded_truncate_matches_the_block_walk(seed):
    for stream in seeded_streams(seed):
        assert_truncations_match_the_walk(stream)


@pytest.mark.parametrize("k", range(1, 5))
def test_far_shift_truncation_around_the_second_cycle(k):
    shift = 10**12
    base = [blk(k, [(2, k), (3, 1)]), blk(k, [(5, 1), (7, k)])]
    stream = Stream(k, [blk(k, [(0, k)])], base, shift)
    for horizon in range(shift, shift + 9):
        assert_truncation_is_valid(stream, horizon)
    assert len(stream.truncate(shift + 7)) == 5


def interlocked_mix(m):
    """The block with full value at 0 and a 1 at each odd position below 2m."""
    pairs = [(0, 2)] + [(2 * n + 1, 1) for n in range(m)]
    return Subblock.from_pairs(2, pairs)


@pytest.mark.parametrize("m", range(1, 8))
def test_interlocked_families_share_the_mixed_blocks(m):
    p = make_builtin("example13_P", 2).truncate(2 * m)
    q = make_builtin("example13_Q", 2).truncate(2 * m)
    t = interlocked_mix(m)
    wp = membership_witness(t, p)
    wq = membership_witness(t, q)
    assert wp is not None and wq is not None
    # both witnesses lower every generator after the first by one tetris
    # move; on the tagged side that also wipes the even-position tags
    expected = tuple([(0, 0)] + [(n, 1) for n in range(1, m + 1)])
    assert wp.terms == expected
    assert wq.terms == expected
