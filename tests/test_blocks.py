"""Block algebra: construction, parsing, tetris, addition, star, ordering."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from fink import (
    BlockSequence,
    MismatchedLevel,
    NotABlock,
    OverlappingSupport,
    ParseError,
    Subblock,
    add,
    membership_witness,
    peak,
    star,
    tetris,
)
from fink.blocks import parse_int


def blk(k, pairs):
    return Subblock.from_pairs(k, pairs)


class TestConstruction:
    def test_canonical_form_ignores_zero_entries(self):
        assert blk(2, [(0, 2), (3, 0)]) == blk(2, [(0, 2)])

    def test_support_and_extremes(self):
        p = blk(2, [(1, 2), (4, 1)])
        assert p.support == (1, 4)
        assert p.min_support == 1
        assert p.max_support == 4
        assert p.value_at(0) == 0
        assert p.value_at(4) == 1

    def test_empty_subblock(self):
        e = Subblock.from_pairs(2, ())
        assert e.is_empty
        assert not e.is_block
        assert e.support == ()

    def test_rejects_values_above_level(self):
        with pytest.raises(ValueError):
            blk(2, [(0, 3)])
        with pytest.raises(ValueError):
            blk(2, [(0, -1)])

    def test_rejects_duplicate_positions(self):
        with pytest.raises(ValueError):
            blk(2, [(0, 1), (0, 2)])

    def test_immutable(self):
        p = blk(2, [(0, 2)])
        with pytest.raises(AttributeError):
            p.k = 3

    def test_trusted_constructor_builds_the_same_immutable_value(self):
        pairs = ((1, 2), (4, 1))
        p = Subblock._raw(2, pairs)
        assert p == blk(2, pairs) and hash(p) == hash(blk(2, pairs))
        assert p.k == 2 and p.pairs is pairs
        for name in ("k", "pairs"):
            with pytest.raises(AttributeError):
                setattr(p, name, None)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", [0, 1, 50])
    def test_batch_constructor_builds_what_the_trusted_one_does(self, k, count):
        rows = [
            tuple((3 * i + j, 1 + (i + j) % k) for j in range(i % 3)) + ((3 * i + 2, k),)
            for i in range(count)
        ]
        made = Subblock._raw_many(k, iter(rows), count)
        assert type(made) is tuple and len(made) == count
        for p, pairs in zip(made, rows):
            one = Subblock._raw(k, pairs)
            assert type(p) is Subblock and p == one and hash(p) == hash(one)
            assert p.k == k and p.pairs is pairs
            for name in ("k", "pairs"):
                with pytest.raises(AttributeError):
                    setattr(p, name, None)

    def test_batch_constructor_takes_only_count_rows(self):
        rows = iter([((0, 2),), ((2, 2),), ((4, 2),)])
        made = Subblock._raw_many(2, rows, 2)
        assert [p.pairs for p in made] == [((0, 2),), ((2, 2),)]
        assert next(rows) == ((4, 2),)

    def test_is_block_requires_full_value(self):
        assert blk(2, [(0, 2), (1, 1)]).is_block
        assert not blk(2, [(0, 1), (1, 1)]).is_block


class TestParseRender:
    def test_parse_body(self):
        assert Subblock.parse_body(2, "0:2,3:1") == blk(2, [(0, 2), (3, 1)])
        assert Subblock.parse_body(2, "-") == Subblock.from_pairs(2, ())

    def test_parse_full_literal(self):
        assert Subblock.parse("k=2|0:2,1:1") == blk(2, [(0, 2), (1, 1)])

    def test_render_round_trip(self):
        p = blk(3, [(0, 3), (2, 1), (5, 2)])
        assert Subblock.parse(p.render()) == p
        assert p.render() == "k=3|0:3,2:1,5:2"
        assert Subblock.from_pairs(2, ()).render_body() == "-"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            Subblock.parse_body(2, "3:1,0:2")  # positions must increase
        with pytest.raises(ParseError):
            Subblock.parse_body(2, "0:0")
        with pytest.raises(ParseError):
            Subblock.parse_body(2, "0:9")
        with pytest.raises(ParseError):
            Subblock.parse("0:2,1:1")  # missing level header
        with pytest.raises(ParseError):
            Subblock.parse("k=x|0:2")

    @pytest.mark.parametrize("text, value", [("0", 0), (" -12 ", -12), ("007", 7)])
    def test_parse_int_reads_plain_integers(self, text, value):
        assert parse_int(text) == value

    @pytest.mark.parametrize(
        "text", ["", "-", "+2", "1_0", "\u0663", "\u00b2", "1.0", "- 1", "--1", "0x1"]
    )
    def test_parse_int_refuses_what_int_would_stretch_to(self, text):
        with pytest.raises(ValueError):
            parse_int(text)

    @pytest.mark.parametrize("text", ["1_0", "+2", "\u0663"])
    def test_literal_level_and_body_use_the_plain_grammar(self, text):
        with pytest.raises(ParseError, match="^bad level in "):
            Subblock.parse(f"k={text}|0:2")
        with pytest.raises(ParseError, match="^non-integer entry "):
            Subblock.parse(f"k=2|{text}:2")
        with pytest.raises(ParseError, match="^non-integer entry "):
            Subblock.parse_body(2, f"0:{text}")

    @pytest.mark.parametrize("k, body", [(-1, "-"), (0, "0:1"), (0, "-")])
    def test_nonpositive_level_is_named(self, k, body):
        with pytest.raises(ParseError, match=f"^level must be positive, got {k}$"):
            Subblock.parse_body(k, body)

    @pytest.mark.parametrize("body", ["-3:1", "0:2,-3:1"])
    def test_negative_position_is_named(self, body):
        with pytest.raises(ParseError, match="^negative position at '-3:1'$"):
            Subblock.parse_body(2, body)


class TestTetris:
    def test_single_step(self):
        assert tetris(blk(2, [(0, 2), (3, 1)])) == blk(2, [(0, 1)])

    def test_full_level_clears(self):
        p = blk(2, [(1, 2), (2, 1)])
        assert tetris(p, 2) == Subblock.from_pairs(2, ())

    def test_zero_steps_is_identity(self):
        p = blk(2, [(0, 2)])
        assert tetris(p, 0) == p

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            tetris(blk(2, [(0, 2)]), -1)


class TestAdd:
    def test_disjoint_supports(self):
        assert add(blk(2, [(0, 2)]), blk(2, [(1, 2), (2, 1)])) == blk(
            2, [(0, 2), (1, 2), (2, 1)]
        )

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingSupport):
            add(blk(2, [(0, 2), (1, 1)]), blk(2, [(1, 2)]))
        # interleaved supports report their least shared position
        with pytest.raises(OverlappingSupport, match="position 3$"):
            add(blk(2, [(0, 2), (3, 1), (5, 1)]), blk(2, [(1, 1), (3, 2), (5, 2)]))

    def test_level_mismatch_rejected(self):
        with pytest.raises(MismatchedLevel):
            add(blk(2, [(0, 2)]), blk(3, [(1, 3)]))

    def test_empty_is_identity(self):
        p = blk(2, [(0, 2)])
        assert add(p, Subblock.from_pairs(2, ())) == p


class TestStar:
    def test_pointwise_max(self):
        assert star(blk(2, [(0, 2), (1, 1)]), blk(2, [(1, 2), (3, 1)])) == blk(
            2, [(0, 2), (1, 2), (3, 1)]
        )

    def test_agrees_with_add_on_disjoint(self):
        p, q = blk(2, [(0, 2)]), blk(2, [(2, 1)])
        assert star(p, q) == add(p, q)


class TestPeak:
    def test_last_full_position(self):
        assert peak(blk(2, [(0, 2), (1, 1)])) == 0
        assert peak(blk(2, [(0, 2), (3, 2)])) == 3
        assert peak(blk(3, [(4, 3)])) == 4

    def test_requires_a_block(self):
        with pytest.raises(NotABlock):
            peak(blk(2, [(1, 1)]))
        with pytest.raises(NotABlock):
            peak(Subblock.from_pairs(2, ()))


class TestOrdering:
    def test_strict_separation(self):
        assert blk(2, [(0, 2)]).before(blk(2, [(1, 2)]))
        assert not blk(2, [(0, 2), (1, 1)]).before(blk(2, [(1, 2)]))
        assert blk(2, [(0, 2)]).before(blk(2, [(3, 2)]))

    def test_empty_compares_both_ways(self):
        e = Subblock.from_pairs(2, ())
        p = blk(2, [(0, 2)])
        assert e.before(p)
        assert p.before(e)

    def test_level_mismatch_rejected(self):
        with pytest.raises(MismatchedLevel):
            blk(2, [(0, 2)]).before(blk(3, [(1, 3)]))

    def test_restrict_and_shift(self):
        p = blk(2, [(0, 1), (2, 2), (5, 1)])
        # both cuts are strict, so position 2 survives in neither part
        assert p.restrict_below(2) == blk(2, [(0, 1)])
        assert p.restrict_above(2) == blk(2, [(5, 1)])
        assert add(add(p.restrict_below(2), blk(2, [(2, 2)])), p.restrict_above(2)) == p
        assert p.shift(3) == blk(2, [(3, 1), (5, 2), (8, 1)])


# random sparse maps, possibly empty, values 1..k
def subblocks(k):
    return st.dictionaries(st.integers(0, 14), st.integers(1, k), max_size=6).map(
        lambda d: Subblock.from_pairs(k, d.items())
    )


def disjoint_triples(k):
    # assign every position an owner so the three supports never collide
    return st.dictionaries(
        st.integers(0, 14),
        st.tuples(st.integers(0, 2), st.integers(1, k)),
        max_size=9,
    ).map(
        lambda d: tuple(
            Subblock.from_pairs(
                k, [(pos, val) for pos, (owner, val) in d.items() if owner == who]
            )
            for who in range(3)
        )
    )


@given(disjoint_triples(2))
def test_add_commutes_and_associates(triple):
    p, q, r = triple
    assert add(p, q) == add(q, p)
    assert add(add(p, q), r) == add(p, add(q, r))


@given(subblocks(3), subblocks(3), subblocks(3))
def test_star_laws(p, q, r):
    assert star(p, q) == star(q, p)
    assert star(star(p, q), r) == star(p, star(q, r))
    assert star(p, p) == p


@given(disjoint_triples(3), st.integers(0, 3))
def test_tetris_distributes(triple, steps):
    p, q, _ = triple
    assert tetris(add(p, q), steps) == add(tetris(p, steps), tetris(q, steps))
    assert tetris(star(p, q), steps) == star(tetris(p, steps), tetris(q, steps))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@given(data=st.data())
def test_star_matches_oracle(k, data):
    wide = data.draw(st.dictionaries(st.integers(0, 40), st.integers(1, k), max_size=24))
    narrow = data.draw(st.dictionaries(st.integers(0, 40), st.integers(1, k), max_size=4))
    past = {pos + max(wide, default=-1) + 1: v for pos, v in narrow.items()}
    # interleaved, disjoint and empty operands of unequal length, in both orders
    for a, b in ((wide, narrow), (wide, past), (wide, {}), (narrow, {})):
        expected = oracle.as_key(oracle.star_dicts(a, b))
        for p, q in ((a, b), (b, a)):
            assert star(blk(k, p.items()), blk(k, q.items())).pairs == expected


@given(subblocks(3), st.integers(0, 2), st.integers(0, 2))
def test_tetris_composes(p, i, j):
    assert tetris(tetris(p, i), j) == tetris(p, i + j)


@given(subblocks(2))
def test_render_parse_round_trip(p):
    assert Subblock.parse(p.render()) == p


@given(subblocks(3), st.integers(1, 3))
def test_tetris_matches_oracle(p, steps):
    image = oracle.tetris_dict(oracle.to_dict(p), steps)
    assert oracle.to_dict(tetris(p, steps)) == image


FAR = 10**12


def test_far_positions_cost_follows_the_support():
    tracemalloc.start()
    try:
        p = Subblock.parse_body(2, f"0:2,{FAR}:1")
        assert p.render_body() == f"0:2,{FAR}:1"
        assert p.value_at(FAR) == 1 and p.value_at(FAR - 1) == 0
        moved = p.shift(FAR + 1)
        assert moved.support == (FAR + 1, 2 * FAR + 1)
        assert tetris(p) == blk(2, [(0, 1)])
        assert add(moved, p) == blk(2, [(0, 2), (FAR, 1), (FAR + 1, 2), (2 * FAR + 1, 1)])
        assert add(p, blk(2, [(1, 1)])) == blk(2, [(0, 2), (1, 1), (FAR, 1)])
        with pytest.raises(OverlappingSupport, match=f"position {FAR}$"):
            add(p, p.shift(FAR))
        assert star(p, blk(2, [(FAR, 2)])) == blk(2, [(0, 2), (FAR, 2)])
        assert p.restrict_below(FAR) == blk(2, [(0, 2)])
        assert p.restrict_above(0) == blk(2, [(FAR, 1)])
        assert peak(moved) == FAR + 1
        generators = BlockSequence(2, [p, blk(2, [(FAR + 1, 2)])])
        witness = membership_witness(add(tetris(p), blk(2, [(FAR + 1, 2)])), generators)
        assert witness.render() == "0^1 + 1^0"
        assert membership_witness(blk(2, [(FAR, 1)]), generators) is None
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_bytes < 1_000_000
