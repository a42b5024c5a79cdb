"""Command-line behavior: golden outputs, exit codes, JSON mode."""

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

import fink
from fink import cli
from fink.cli import main

P_SEQ = "k=2\n0:2\n1:2\n3:2\n5:2\n7:2\n9:2\n"
Q_SEQ = "k=2\n0:2\n1:2,2:1\n3:2,4:1\n"
P3_SEQ = "k=2\n0:2\n1:2\n3:2\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("P.seq", P_SEQ),
        ("Q.seq", Q_SEQ),
        ("P3.seq", P3_SEQ),
        ("single.seq", "k=2\n0:2\n"),
        ("late.seq", "k=2\n1:2\n"),
        ("blocks.txt", "k=2\n0:2\n0:2,1:1\n"),
        ("notblocks.txt", "k=2\n0:1\n"),
    ):
        target = tmp_path / name
        target.write_text(text, encoding="utf-8")
        paths[name] = str(target)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMember:
    def test_yes(self, capsys, files):
        code, out, _ = run(
            capsys, "member", "--k", "2", "--seq", files["P.seq"],
            "--block", "0:2,1:1,3:1",
        )
        assert code == 0
        assert out == "yes 0^0 + 1^1 + 2^1\n"

    def test_no(self, capsys, files):
        code, out, _ = run(
            capsys, "member", "--k", "2", "--seq", files["P.seq"], "--block", "1:1"
        )
        assert code == 2
        assert out == "no\n"

    def test_far_position_is_not_a_member(self, capsys, files):
        code, out, _ = run(
            capsys, "member", "--k", "2", "--seq", files["P.seq"],
            "--block", "1000000000000:2",
        )
        assert code == 2
        assert out == "no\n"

    def test_negative_position_is_named(self, capsys, files):
        code, out, err = run(
            capsys, "member", "--seq", files["P.seq"], "--block=0:2,-3:1"
        )
        assert code == 1
        assert out == ""
        assert err == "error: ParseError: negative position at '-3:1'\n"

    def test_starred_flips_the_answer(self, capsys, files):
        code, out, _ = run(
            capsys, "member", "--k", "2", "--seq", files["P.seq"],
            "--block", "1:1", "--starred",
        )
        assert code == 0
        assert out == "yes 1^1\n"

    def test_json(self, capsys, files):
        code, out, _ = run(
            capsys, "member", "--format", "json", "--seq", files["P.seq"],
            "--block", "0:2,1:1,3:1",
        )
        assert code == 0
        assert json.loads(out) == {"member": True, "witness": "0^0 + 1^1 + 2^1"}

    def test_json_negative(self, capsys, files):
        code, out, _ = run(
            capsys, "member", "--format", "json", "--seq", files["P.seq"],
            "--block", "1:1",
        )
        assert code == 2
        assert json.loads(out) == {"member": False, "witness": None}


class TestEvalAndSpan:
    def test_eval(self, capsys, files):
        code, out, _ = run(
            capsys, "eval", "--seq", files["P.seq"], "--comb", "0^0 + 1^1 + 2^1"
        )
        assert code == 0
        assert out == "0:2,1:1,3:1\n"

    def test_eval_starred(self, capsys, files):
        code, out, _ = run(
            capsys, "eval", "--seq", files["P.seq"], "--comb", "1^1", "--starred"
        )
        assert code == 0
        assert out == "1:1\n"

    @pytest.mark.parametrize("form", ["text", "json"])
    def test_eval_empty_combination(self, capsys, files, form):
        argv = ["eval", "--seq", files["P.seq"], "--comb", "-", "--format", form]
        # only a starred combination may be empty
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: ParseError: an unstarred combination needs at least one term\n"
        code, out, err = run(capsys, *argv, "--starred")
        assert (code, err) == (0, "")
        assert out == ("-\n" if form == "text" else '{"block": "-"}\n')

    def test_span_golden(self, capsys, tmp_path):
        target = tmp_path / "two.seq"
        target.write_text("k=2\n0:2\n1:2\n", encoding="utf-8")
        code, out, _ = run(capsys, "span", "--seq", str(target))
        assert code == 0
        assert out == (
            "0:2 <- 0^0\n"
            "0:2,1:2 <- 0^0 + 1^0\n"
            "0:2,1:1 <- 0^0 + 1^1\n"
            "0:1,1:2 <- 0^1 + 1^0\n"
            "1:2 <- 1^0\n"
        )

    def test_span_starred_ends_with_empty(self, capsys, tmp_path):
        target = tmp_path / "two.seq"
        target.write_text("k=2\n0:2\n1:2\n", encoding="utf-8")
        code, out, _ = run(capsys, "span", "--seq", str(target), "--starred")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 9
        assert lines[-1] == "- <- -"
        assert "0:1,1:1 <- 0^1 + 1^1" in lines

    def test_span_at_a_wide_level_costs_what_it_prints(self, capsys, tmp_path):
        # unstarred, a lone generator lists its own pairs at exponent 0: the
        # walk builds none of its 10^8 images and steps through no exponent
        target = tmp_path / "wide.seq"
        target.write_text("k=100000000\n0:100000000\n", encoding="utf-8")
        tracemalloc.start()
        try:
            code = main(["span", "--seq", str(target)])
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr().out) == (0, "0:100000000 <- 0^0\n")
        assert peak_bytes < 2**20
        # two generators list 2k + 1 elements, in the same bytes as before
        target.write_text("k=3000\n0:3000\n5:3000\n", encoding="utf-8")
        code, out, _ = run(capsys, "span", "--seq", str(target))
        assert (code, out.count("\n")) == (0, 6001)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f63207e4a281323b92d75c1b7632cd0000daedd7d287c83f4caa39b9f38600b3"
        )

    def test_span_cap(self, capsys, files):
        code, _, err = run(capsys, "span", "--seq", files["P.seq"], "--cap", "1.0")
        assert code == 1
        assert err == "error: EnumerationCapExceeded: 665 combinations need 9.4 bits, cap is 1.0\n"

    def test_span_listing_is_written_as_it_is_walked(self, monkeypatch, tmp_path):
        # 3^9 - 1 starred elements and the empty one.  A listing built whole
        # before it is written peaks near 15 MiB of traced memory; written as
        # it is walked, near 1 MiB, most of it tuples kept on CPython's free
        # lists, whose size does not depend on the listing's length
        target = tmp_path / "nine.seq"
        target.write_text("k=2\n" + "".join(f"{2 * i}:2\n" for i in range(9)), encoding="utf-8")
        sink = _LineCounter()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["span", "--seq", str(target), "--starred"])
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, sink.lines) == (0, 19683)
        assert peak_bytes < 4 * 2**20


class TestIntersect:
    def test_golden(self, capsys, files):
        code, out, _ = run(
            capsys, "intersect", "--P", files["P3.seq"], "--Q", files["Q.seq"]
        )
        assert code == 0
        assert out == (
            "0:2 <- 0^0 | 0^0\n"
            "0:2,1:1 <- 0^0 + 1^1 | 0^0 + 1^1\n"
            "0:2,1:1,3:1 <- 0^0 + 1^1 + 2^1 | 0^0 + 1^1 + 2^1\n"
            "0:2,3:1 <- 0^0 + 2^1 | 0^0 + 2^1\n"
        )

    def test_empty_intersection_is_negative(self, capsys, files):
        code, out, _ = run(
            capsys, "intersect", "--P", files["single.seq"], "--Q", files["late.seq"]
        )
        assert code == 2
        assert out == ""

    def test_json(self, capsys, files):
        code, out, _ = run(
            capsys, "intersect", "--format", "json",
            "--P", files["P3.seq"], "--Q", files["Q.seq"],
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0] == {"block": "0:2", "left_witness": "0^0", "right_witness": "0^0"}
        assert len(rows) == 4


class TestValuation:
    def test_default_horizon(self, capsys, files):
        code, out, _ = run(capsys, "valuation", "--blocks", files["blocks.txt"])
        assert code == 0
        assert out == "F=0 count=2 horizon=1\n"

    def test_explicit_horizon(self, capsys, files):
        code, out, _ = run(
            capsys, "valuation", "--blocks", files["blocks.txt"], "--horizon", "9"
        )
        assert code == 0
        assert out == "F=0 count=2 horizon=9\n"

    def test_bottom(self, capsys, tmp_path):
        target = tmp_path / "empty.txt"
        target.write_text("k=2\n", encoding="utf-8")
        code, out, _ = run(capsys, "valuation", "--blocks", str(target))
        assert code == 0
        assert out == "F=bottom count=0 horizon=0\n"

    def test_non_block_entry_is_an_error(self, capsys, files):
        code, _, err = run(capsys, "valuation", "--blocks", files["notblocks.txt"])
        assert code == 1
        assert "NotABlock" in err

    def test_json(self, capsys, files):
        code, out, _ = run(
            capsys, "valuation", "--format", "json", "--blocks", files["blocks.txt"]
        )
        assert code == 0
        assert json.loads(out) == {"value": 0, "count": 2, "horizon": 1}

    @pytest.mark.parametrize(
        "body", ["5:2", "0:2,5:1"], ids=["peak-past", "support-past"]
    )
    def test_block_past_the_horizon(self, capsys, tmp_path, body):
        target = tmp_path / "set.blocks"
        target.write_text(f"k=2\n{body}\n", encoding="utf-8")
        code, out, err = run(
            capsys, "valuation", "--blocks", str(target), "--horizon", "0"
        )
        assert code == 1
        assert out == ""
        assert err == f"error: HorizonExhausted: block {body} reaches past horizon 0\n"

    @pytest.mark.parametrize("body", ["", "0:2\n"], ids=["empty", "nonempty"])
    def test_negative_horizon_is_a_usage_error(self, capsys, tmp_path, body):
        target = tmp_path / "set.blocks"
        target.write_text(f"k=2\n{body}", encoding="utf-8")
        code, out, err = run(
            capsys, "valuation", "--blocks", str(target), "--horizon", "-5"
        )
        assert code == 1
        assert out == ""
        assert "error: usage:" in err


class TestGraphAndIntertwined:
    def test_graph_two_components(self, capsys, files):
        code, out, _ = run(
            capsys, "graph", "--P", files["P3.seq"], "--Q", files["Q.seq"],
            "--block", "0:2,1:1",
        )
        assert code == 0
        assert out == "L0 - R0\nL1 - R1\n"

    def test_graph_not_common(self, capsys, files):
        code, out, _ = run(
            capsys, "graph", "--P", files["P3.seq"], "--Q", files["Q.seq"],
            "--block", "1:2",
        )
        assert code == 2
        assert out == "no\n"

    def test_intertwined_yes(self, capsys, files):
        code, out, _ = run(
            capsys, "intertwined", "--P", files["P3.seq"], "--Q", files["Q.seq"],
            "--block", "0:2",
        )
        assert code == 0
        assert out == "yes\n"

    def test_intertwined_no(self, capsys, files):
        code, out, _ = run(
            capsys, "intertwined", "--P", files["P3.seq"], "--Q", files["Q.seq"],
            "--block", "0:2,1:1",
        )
        assert code == 2
        assert out == "no\n"


class TestExtractAndSplit:
    def test_extract(self, capsys, files):
        code, out, _ = run(
            capsys, "extract", "--P", files["P3.seq"], "--Q", files["Q.seq"]
        )
        assert code == 0
        assert out == "N=1 block=0:2 P=[0^0] Q=[0^0]\n"

    def test_extract_nothing(self, capsys, files):
        code, out, _ = run(
            capsys, "extract", "--P", files["single.seq"], "--Q", files["late.seq"]
        )
        assert code == 2
        assert out == "none\n"

    def test_extract_json(self, capsys, files):
        code, out, _ = run(
            capsys, "extract", "--format", "json",
            "--P", files["P3.seq"], "--Q", files["Q.seq"],
        )
        assert code == 0
        assert json.loads(out) == {
            "found": True,
            "prefix_length": 1,
            "block": "0:2",
            "left_witness": "0^0",
            "right_witness": "0^0",
        }

    def test_split(self, capsys, files):
        code, out, _ = run(
            capsys, "split", "--P", files["P3.seq"], "--Q", files["Q.seq"],
            "--anchor", "0:2", "--other", "0:2,1:1,3:1",
        )
        assert code == 0
        assert out == "s=- r=1:1,3:1\n"

    def test_split_around_a_far_anchor(self, capsys, tmp_path):
        target = tmp_path / "far.seq"
        target.write_text("k=2\n0:2,1000000000000:1\n1000000000001:2\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "split", "--P", str(target), "--Q", str(target),
            "--anchor", "0:2,1000000000000:1",
            "--other", "0:2,1000000000000:1,1000000000001:2",
        )
        assert code == 0
        assert out == "s=- r=1000000000001:2\n"

    def test_split_not_intertwined(self, capsys, files):
        code, _, err = run(
            capsys, "split", "--P", files["P3.seq"], "--Q", files["Q.seq"],
            "--anchor", "0:2,1:1", "--other", "0:2",
        )
        assert code == 1
        assert "NotIntertwined" in err

    def test_split_non_member_anchor(self, capsys, files):
        code, out, _ = run(
            capsys, "split", "--P", files["P3.seq"], "--Q", files["Q.seq"],
            "--anchor", "1:2", "--other", "0:2",
        )
        assert code == 2
        assert out == "no\n"


class TestSmall:
    def test_builtin_streams(self, capsys):
        code, out, _ = run(
            capsys, "small", "--P", "example13_P", "--Q", "example13_Q",
            "--k", "2", "--n", "1", "--horizon", "9",
        )
        assert code == 0
        assert out == "empty_at_horizon\n"

    def test_nonempty_tail(self, capsys):
        code, out, _ = run(
            capsys, "small", "--P", "example13_P", "--Q", "example13_Q",
            "--k", "2", "--n", "0", "--horizon", "9",
        )
        assert code == 2
        assert out == "nonempty\n"

    def test_inline_spec_stream(self, capsys):
        code, out, _ = run(
            capsys, "small", "--P", "kind=builtin name=example13_P k=2",
            "--Q", "kind=periodic shift=2 k=2 base=0:2",
            "--n", "1", "--horizon", "8",
        )
        assert code == 0
        assert out == "empty_at_horizon\n"

    def test_sequence_file_stream(self, capsys, files):
        code, out, _ = run(
            capsys, "small", "--P", files["single.seq"], "--Q", files["late.seq"],
            "--n", "0", "--horizon", "9",
        )
        assert code == 0
        assert out == "empty_at_horizon\n"

    def test_json_carries_the_witness(self, capsys):
        code, out, _ = run(
            capsys, "small", "--format", "json", "--P", "example13_P",
            "--Q", "example13_Q", "--k", "2", "--n", "0", "--horizon", "9",
        )
        assert code == 2
        row = json.loads(out)
        assert row["verdict"] == "nonempty"
        assert row["tail_index"] == 0
        assert row["horizon"] == 9
        assert row["witness_block"] == "0:2"

    @pytest.mark.parametrize(
        "argv, level",
        [
            (["--P", "evens", "--Q", "evens", "--k", "0"], 0),
            (["--P", "kind=builtin name=evens k=0", "--Q", "evens"], 0),
            (["--P", "kind=periodic k=-1 shift=2 base=-", "--Q", "evens"], -1),
        ],
        ids=["builtin-flag", "builtin-spec", "periodic-spec"],
    )
    def test_nonpositive_level_is_a_parse_error(self, capsys, argv, level):
        code, out, err = run(capsys, "small", *argv, "--n", "0", "--horizon", "5")
        assert (code, out) == (1, "")
        assert err == f"error: ParseError: level must be positive, got {level}\n"

    def test_builtin_needs_k(self, capsys):
        code, _, err = run(
            capsys, "small", "--P", "example13_P", "--Q", "example13_Q",
            "--n", "1", "--horizon", "9",
        )
        assert code == 1
        assert "error:" in err


class TestDiag:
    def test_three_member_trace(self, capsys):
        code, out, _ = run(
            capsys, "diag", "--member", "example13_P", "--member", "example13_Q",
            "--member", "evens", "--k", "2", "--horizon", "15",
        )
        assert code == 0
        assert out == (
            "step=0 q=k=2|0:2 J=- checks=[]\n"
            "step=1 q=k=2|3:2,4:1 J=1 checks=[0:0->0]\n"
            "step=2 q=k=2|8:2 J=3 checks=[0:0->0,1:3->3]\n"
        )

    def test_nonpositive_level_is_a_parse_error(self, capsys):
        code, out, err = run(
            capsys, "diag", "--member", "example13_P", "--member", "evens",
            "--k", "-3", "--horizon", "9",
        )
        assert (code, out) == (1, "")
        assert err == "error: ParseError: level must be positive, got -3\n"

    def test_not_almost_disjoint(self, capsys):
        code, _, err = run(
            capsys, "diag", "--member", "example13_P", "--member", "example13_P",
            "--k", "2", "--horizon", "9",
        )
        assert code == 1
        assert "NotAlmostDisjoint" in err

    def test_json_steps(self, capsys):
        code, out, _ = run(
            capsys, "diag", "--format", "json", "--member", "example13_P",
            "--member", "example13_Q", "--member", "evens",
            "--k", "2", "--horizon", "15",
        )
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0] == {"step": 0, "q": "k=2|0:2", "between_index": None, "checks": []}
        assert rows[2]["checks"] == [
            {"member": 0, "before": 0, "after": 0},
            {"member": 1, "before": 3, "after": 3},
        ]


class TestLargeLevel:
    """A level whose (k+1)^2 sweep moves pass 2^22 is refused before any
    move is built; k=1000 is still answered."""

    def refused(self, capsys, *argv):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: EnumerationCapExceeded: ")
        assert peak_bytes < 200 * 2**20

    def test_small_at_a_huge_level(self, capsys):
        self.refused(
            capsys, "small", "--P", "evens", "--Q", "example13_P",
            "--k", "1000000", "--n", "1", "--horizon", "4",
        )

    def test_intersect_at_a_huge_level(self, capsys, tmp_path):
        target = tmp_path / "big.seq"
        target.write_text("k=100000\n0:100000\n")
        self.refused(capsys, "intersect", "--P", str(target), "--Q", str(target))

    def test_first_refused_level(self, capsys, tmp_path):
        target = tmp_path / "edge.seq"
        target.write_text("k=2048\n0:2048\n")
        self.refused(capsys, "intersect", "--P", str(target), "--Q", str(target))

    def test_level_1000_is_answered(self, capsys, tmp_path):
        target = tmp_path / "wide.seq"
        target.write_text("k=1000\n0:1000\n")
        code, out, err = run(capsys, "intersect", "--P", str(target), "--Q", str(target))
        assert (code, out, err) == (0, "0:1000 <- 0^0 | 0^0\n", "")


class TestHugeSpanCount:
    """A span whose size is far past the cap is refused from the lower
    bound (k+1)^(N-1), before its exact count, an integer of N*log2(k+1)
    bits, is built."""

    def test_refused_before_the_exact_count(self, capsys, tmp_path):
        k = 10**100
        target = tmp_path / "huge.seq"
        target.write_text(f"k={k}\n" + "".join(f"{i}:{k}\n" for i in range(20000)))
        start = time.process_time()
        code, out, err = run(capsys, "span", "--seq", str(target))
        spent = time.process_time() - start
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: EnumerationCapExceeded: ")
        assert spent < 0.5


class TestPlumbing:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "member", "--seq", "/no/such/file", "--block", "0:2")
        assert code == 1
        assert err.startswith("error:")

    def test_level_cross_check(self, capsys, files):
        code, _, err = run(
            capsys, "member", "--k", "3", "--seq", files["P.seq"], "--block", "0:2"
        )
        assert code == 1
        assert "MismatchedLevel" in err

    def test_usage_error_exits_one(self, capsys, files):
        code, _, err = run(capsys, "member", "--seq", files["P.seq"])
        assert code == 1
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_no_subcommand_prints_help(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "fink" in err

    def test_seed_flag_is_rejected(self, capsys, files):
        code, out, err = run(
            capsys, "member", "--seed", "7", "--seq", files["P.seq"], "--block", "0:2"
        )
        assert code == 1
        assert out == ""
        assert "error: usage:" in err

    def test_cap_only_where_spans_are_enumerated(self, capsys, files):
        code, _, err = run(
            capsys, "member", "--cap", "3", "--seq", files["P.seq"], "--block", "0:2"
        )
        assert code == 1
        assert "error: usage:" in err
        code, _, _ = run(capsys, "span", "--cap", "8", "--seq", files["P3.seq"])
        assert code == 0
        # only listings are capped: small, diag and extract sweep, not enumerate
        for argv in (
            ["small", "--P", "example13_P", "--Q", "example13_Q", "--k", "2",
             "--n", "1", "--horizon", "9"],
            ["diag", "--member", "example13_P", "--member", "evens", "--k", "2",
             "--horizon", "9"],
            ["extract", "--P", files["P3.seq"], "--Q", files["Q.seq"]],
        ):
            code, out, err = run(capsys, *argv, "--cap", "30")
            assert (code, out) == (1, "")
            assert "error: usage: unrecognized arguments: --cap 30" in err
        # intersect caps the number of listed elements, from the exact count
        argv = ["intersect", "--P", files["P3.seq"], "--Q", files["Q.seq"]]
        code, out, err = run(capsys, *argv, "--cap", "1.9")
        assert (code, out) == (1, "")
        assert err == (
            "error: EnumerationCapExceeded: 4 common elements need 2.0 bits, cap is 1.9\n"
        )
        code, out, _ = run(capsys, *argv, "--cap", "2")
        assert code == 0
        assert len(out.splitlines()) == 4

    @pytest.mark.parametrize("cap", ["nan", "inf", "-inf", "NaN", "1e999"])
    @pytest.mark.parametrize("command", ["span", "intersect"])
    def test_non_finite_cap_is_a_usage_error(self, capsys, tmp_path, command, cap):
        # 40 generators at k=2: an uncapped listing would never end
        target = tmp_path / "wide.seq"
        target.write_text("k=2\n" + "".join(f"{2 * i}:2\n" for i in range(40)), encoding="utf-8")
        target = str(target)
        argv = ["--seq", target] if command == "span" else ["--P", target, "--Q", target]
        code, out, err = run(capsys, command, *argv, f"--cap={cap}")
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == (
            f"error: usage: argument --cap: must be finite, got {cap}"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["small", "--P", "example13_P", "--Q", "example13_Q", "--k", "2",
             "--n", "-1", "--horizon", "9"],
            ["small", "--P", "example13_P", "--Q", "example13_Q", "--k", "2",
             "--n", "1", "--horizon", "-3"],
            ["diag", "--member", "example13_P", "--member", "evens", "--k", "2",
             "--n", "-1", "--horizon", "9"],
            ["diag", "--member", "example13_P", "--member", "evens", "--k", "2",
             "--horizon", "-1"],
            ["diag", "--member", "example13_P", "--member", "evens", "--k", "2",
             "--horizon", "9", "--cycles", "0"],
        ],
        ids=["small-n", "small-horizon", "diag-n", "diag-horizon", "diag-cycles"],
    )
    def test_out_of_range_counts_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "error: usage:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["small", "--P", "example13_P", "--Q", "example13_Q", "--k", "2", "--n", "1"],
            ["diag", "--member", "example13_P", "--member", "evens", "--k", "2"],
        ],
        ids=["small", "diag"],
    )
    def test_far_horizon_is_refused_quickly(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--horizon", str(10**12))
        assert time.perf_counter() - start < 2
        assert code == 1
        assert out == ""
        assert err.startswith("error: EnumerationCapExceeded: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        code, out, _ = run(capsys, *argv, "--horizon", "2001")
        assert code == 0 and out

    @pytest.mark.parametrize("header", ["k=x", "k=0"])
    def test_bad_block_file_header(self, capsys, tmp_path, header):
        target = tmp_path / "bad.blocks"
        target.write_text(f"{header}\n0:2\n", encoding="utf-8")
        code, out, err = run(capsys, "valuation", "--blocks", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ParseError: ")
        assert err.rstrip().endswith("(line 1)")

    def test_repeat_runs_are_identical(self, capsys, files):
        _, first, _ = run(capsys, "intersect", "--P", files["P3.seq"], "--Q", files["Q.seq"])
        _, second, _ = run(capsys, "intersect", "--P", files["P3.seq"], "--Q", files["Q.seq"])
        assert first == second



# Three cases per subcommand: a positive answer (exit 0), a negative one
# (exit 2, for the subcommands that have one) and an error (exit 1).
# File names are keys of the ``files`` fixture.
FORMAT_CASES = {
    "eval": [
        (0, ["eval", "--seq", "P.seq", "--comb", "0^0 + 1^1 + 2^1"]),
        (1, ["eval", "--seq", "P.seq", "--comb", "0^1"]),
    ],
    "member": [
        (0, ["member", "--seq", "P.seq", "--block", "0:2,1:1,3:1"]),
        (2, ["member", "--seq", "P.seq", "--block", "1:1"]),
        (1, ["member", "--seq", "P.seq", "--block", "0:x"]),
    ],
    "span": [
        (0, ["span", "--seq", "P3.seq", "--starred"]),
        (1, ["span", "--seq", "P.seq", "--cap", "1"]),
    ],
    "intersect": [
        (0, ["intersect", "--P", "P3.seq", "--Q", "Q.seq"]),
        (2, ["intersect", "--P", "single.seq", "--Q", "late.seq"]),
        (1, ["intersect", "--P", "P3.seq", "--Q", "blocks.txt"]),
    ],
    "valuation": [
        (0, ["valuation", "--blocks", "blocks.txt", "--horizon", "4"]),
        (1, ["valuation", "--blocks", "notblocks.txt"]),
    ],
    "graph": [
        (0, ["graph", "--P", "P3.seq", "--Q", "Q.seq", "--block", "0:2,1:1,3:1"]),
        (2, ["graph", "--P", "P3.seq", "--Q", "Q.seq", "--block", "1:2"]),
        (1, ["graph", "--P", "P3.seq", "--Q", "Q.seq", "--block", "0:2,0:1"]),
    ],
    "intertwined": [
        (0, ["intertwined", "--P", "P3.seq", "--Q", "Q.seq", "--block", "0:2"]),
        (2, ["intertwined", "--P", "P3.seq", "--Q", "Q.seq", "--block", "0:2,1:1"]),
        (1, ["intertwined", "--k", "3", "--P", "P3.seq", "--Q", "Q.seq", "--block", "0:2"]),
    ],
    "extract": [
        (0, ["extract", "--P", "P3.seq", "--Q", "Q.seq"]),
        (2, ["extract", "--P", "single.seq", "--Q", "late.seq"]),
        (1, ["extract", "--P", "P3.seq", "--Q", "missing.seq"]),
    ],
    "split": [
        (0, ["split", "--P", "P3.seq", "--Q", "Q.seq", "--anchor", "0:2",
             "--other", "0:2,1:1,3:1"]),
        (2, ["split", "--P", "P3.seq", "--Q", "Q.seq", "--anchor", "1:2", "--other", "0:2"]),
        (1, ["split", "--P", "P3.seq", "--Q", "Q.seq", "--anchor", "0:2,1:1",
             "--other", "0:2"]),
    ],
    "small": [
        (0, ["small", "--P", "example13_P", "--Q", "example13_Q", "--k", "2",
             "--n", "1", "--horizon", "9"]),
        (2, ["small", "--P", "example13_P", "--Q", "example13_Q", "--k", "2",
             "--n", "0", "--horizon", "9"]),
        (1, ["small", "--P", "example13_P", "--Q", "example13_Q",
             "--n", "1", "--horizon", "9"]),
    ],
    "diag": [
        (0, ["diag", "--member", "example13_P", "--member", "example13_Q",
             "--member", "evens", "--k", "2", "--horizon", "40", "--cycles", "2"]),
        (1, ["diag", "--member", "example13_P", "--member", "example13_P",
             "--k", "2", "--horizon", "9"]),
    ],
}


@pytest.mark.parametrize(
    "code, argv",
    [case for cases in FORMAT_CASES.values() for case in cases],
    ids=[f"{name}-{code}" for name, cases in FORMAT_CASES.items() for code, _ in cases],
)
def test_text_and_json_modes_agree(capsys, files, code, argv):
    argv = [files.get(arg, arg) for arg in argv]
    text = run(capsys, *argv)
    as_json = run(capsys, *argv, "--format", "json")
    assert text[0] == as_json[0] == code
    assert text[2] == as_json[2]
    assert (text[2] == "") == (code != 1)
    assert len(text[1].splitlines()) == len(as_json[1].splitlines())
    assert (text[1] == "") == (code == 1 or argv[0] == "intersect" and code == 2)
    for line in as_json[1].splitlines():
        json.loads(line)


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["eval", "--seq", "P.seq", "--comb", "0^0 + 1^1 + 2^1"], 0,
         '{"block": "0:2,1:1,3:1"}\n'),
        (["span", "--seq", "P2.seq", "--starred"], 0,
         '{"block": "0:2", "witness": "0^0"}\n'
         '{"block": "0:1", "witness": "0^1"}\n'
         '{"block": "0:2,1:2", "witness": "0^0 + 1^0"}\n'
         '{"block": "0:2,1:1", "witness": "0^0 + 1^1"}\n'
         '{"block": "0:1,1:2", "witness": "0^1 + 1^0"}\n'
         '{"block": "0:1,1:1", "witness": "0^1 + 1^1"}\n'
         '{"block": "1:2", "witness": "1^0"}\n'
         '{"block": "1:1", "witness": "1^1"}\n'
         '{"block": "-", "witness": null}\n'),
        (["graph", "--P", "P3.seq", "--Q", "Q.seq", "--block", "0:2,1:1"], 0,
         '{"left": 0, "right": 0}\n{"left": 1, "right": 1}\n'),
        (["graph", "--P", "P3.seq", "--Q", "Q.seq", "--block", "1:2"], 2,
         '{"member": false}\n'),
        (["intertwined", "--P", "P3.seq", "--Q", "Q.seq", "--block", "0:2"], 0,
         '{"intertwined": true}\n'),
        (["intertwined", "--P", "P3.seq", "--Q", "Q.seq", "--block", "0:2,1:1"], 2,
         '{"intertwined": false}\n'),
        (["split", "--P", "P3.seq", "--Q", "Q.seq", "--anchor", "0:2", "--other", "0:2,1:1"],
         0, '{"below": "-", "above": "1:1"}\n'),
        (["split", "--P", "P3.seq", "--Q", "Q.seq", "--anchor", "1:2", "--other", "0:2"],
         2, '{"member": false}\n'),
    ],
    ids=["eval", "span-starred", "graph", "graph-not-common", "intertwined-yes",
         "intertwined-no", "split", "split-not-common"],
)
def test_json_golden_bytes(capsys, files, tmp_path, argv, code, out):
    two = tmp_path / "P2.seq"
    two.write_text("k=2\n0:2\n1:2\n", encoding="utf-8")
    argv = [{**files, "P2.seq": str(two)}.get(arg, arg) for arg in argv]
    assert run(capsys, *argv, "--format", "json") == (code, out, "")


class _LineCounter:
    def __init__(self):
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")

    def flush(self):
        pass


class _BrokenPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("form", ["text", "json"])
def test_closed_stdout_is_one_error_line(capsys, monkeypatch, files, form):
    monkeypatch.setattr(sys, "stdout", _BrokenPipe())
    code = main(["span", "--seq", files["P.seq"], "--format", form])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: BrokenPipeError: [Errno 32] Broken pipe\n"


def test_memory_error_is_one_error_line(capsys, monkeypatch, files):
    def exhausted(args):
        raise MemoryError("out of memory")

    monkeypatch.setattr("fink.cli._cmd_intersect", exhausted)
    code, out, err = run(capsys, "intersect", "--P", files["P.seq"], "--Q", files["Q.seq"])
    assert (code, out, err) == (1, "", "error: MemoryError: out of memory\n")


@pytest.mark.parametrize(
    "number", ["1_0", "+2", "٣", "1e3"], ids=["underscore", "plus", "arabic", "exponent"]
)
@pytest.mark.parametrize(
    "argv, error",
    [
        (["member", "--seq", "P.seq", "--block", "{}:2"], "ParseError: non-integer entry '{}:2'"),
        (["member", "--seq", "header.seq", "--block", "0:2"],
         "ParseError: bad level 'k={}' (line 1)"),
        (["eval", "--seq", "P.seq", "--comb", "0^0 + {}^1"],
         "ParseError: non-integer entry '{}^1'"),
        (["small", "--P", "kind=builtin name=evens k={}", "--Q", "evens", "--k", "2",
          "--n", "1", "--horizon", "9"], "ParseError: k= must be an integer, got '{}'"),
        (["small", "--P", "kind=periodic shift={} k=2 base=0:2", "--Q", "evens", "--k", "2",
          "--n", "1", "--horizon", "9"], "ParseError: shift= must be an integer, got '{}'"),
        (["small", "--P", "evens", "--Q", "evens", "--k", "2", "--n", "1", "--horizon", "{}"],
         "usage: argument --horizon: invalid int value: '{}'"),
        (["member", "--k", "{}", "--seq", "P.seq", "--block", "0:2"],
         "usage: argument --k: invalid int value: '{}'"),
        (["diag", "--member", "evens", "--k", "2", "--n", "{}", "--horizon", "9"],
         "usage: argument --n: invalid int value: '{}'"),
        (["span", "--seq", "P.seq", "--cap", "{}"],
         "usage: argument --cap: invalid float value: '{}'"),
    ],
    ids=["block-body", "file-header", "witness", "spec-k", "spec-shift", "horizon", "k", "n",
         "cap"],
)
def test_integers_are_an_optional_minus_and_ascii_digits(
    capsys, files, tmp_path, number, argv, error
):
    header = tmp_path / "header.seq"
    header.write_text(f"k={number}\n0:2\n", encoding="utf-8")
    paths = {**files, "header.seq": str(header)}
    argv = [paths.get(arg, arg.replace("{}", number)) for arg in argv]
    if argv[0] == "eval" and number == "+2":
        # "+" separates witness terms, so "+2" never reaches an integer read
        error = "ParseError: expected <index>^<exponent>, got ''"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert lines[-1] == "error: " + error.replace("{}", number)
    # a usage error is preceded by the usage text; nothing else is printed
    assert len(lines) == 1 or error.startswith("usage:")
    assert sum(line.startswith("error:") for line in lines) == 1


@pytest.mark.parametrize("cap", ["1.", ".5", "1.5e0", "- 2"])
def test_a_cap_fraction_is_a_dot_between_digits(capsys, files, cap):
    code, out, err = run(capsys, "span", "--seq", files["P.seq"], "--cap", cap)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == f"error: usage: argument --cap: invalid float value: '{cap}'"


@pytest.mark.parametrize("cap", ["9.5", " 10 ", "09.50"])
def test_a_cap_is_read_as_a_decimal(capsys, files, cap):
    code, out, _ = run(capsys, "span", "--seq", files["P.seq"], "--cap", cap)
    assert (code, len(out.splitlines())) == (0, 665)


def test_module_entry_point(tmp_path):
    target = tmp_path / "P.seq"
    target.write_text(P_SEQ, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "fink", "member", "--k", "2",
         "--seq", str(target), "--block", "0:2,1:1,3:1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "yes 0^0 + 1^1 + 2^1\n"


def run_module(*argv, optimize=False):
    """``python [-O] -m fink`` with the package under test on the path."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fink.__file__)))
    flags = ["-O"] if optimize else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "fink", *argv], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["intersect", "--P", "P3.seq", "--Q", "Q.seq"],
        ["diag", "--member", "example13_P", "--member", "example13_Q",
         "--member", "evens", "--k", "2", "--n", "1", "--horizon", "201"],
    ],
    ids=["intersect", "diag-201"],
)
def test_optimized_interpreter_gives_the_same_answers(files, argv):
    argv = [files.get(arg, arg) for arg in argv]
    plain = run_module(*argv)
    optimized = run_module(*argv, optimize=True)
    assert plain.returncode == 0 and plain.stdout
    assert (optimized.stdout, optimized.returncode) == (plain.stdout, plain.returncode)


def test_optimized_interpreter_keeps_the_witness_rechecks():
    # a lying pairs core must still be caught when asserts are compiled away
    script = (
        "import fink.span as span\n"
        "import fink.sweep as sweep\n"
        "from fink import BlockSequence, Subblock, WitnessMismatch, make_builtin\n"
        "from fink.diagonal import run_diagonalization, validate_family\n"
        "from fink.structure import extract_intertwined, smallness_check\n"
        "from fink.structure import decomposition_graph, star_split\n"
        "seq = BlockSequence(2, [Subblock.parse_body(2, b) for b in ('0:2', '1:2')])\n"
        "w = span.Combination(((0, 0),))\n"
        "ce = span.CommonElement(seq[0], w, w)\n"
        "stream = make_builtin('example13_P', 2)\n"
        "members = [make_builtin(name, 2) for name in ('example13_P', 'example13_Q', 'evens')]\n"
        "family = validate_family(members, tail_index=1, horizon=21)\n"
        "resumed = lambda a, b: sweep._Sweep(a, b, resume=sweep._Sweep(a.prefix(1), b))\n"
        "span.evaluate_pairs = lambda s, c: ((99, 2),)\n"
        "for ask in (span.intersect_spans, span.first_common_element,\n"
        "            lambda a, b: sweep._Sweep(a, b).valuation(9), extract_intertwined,\n"
        "            lambda a, b: smallness_check(stream, stream, 0, 9),\n"
        "            lambda a, b: resumed(a, b).valuation(9),\n"
        "            lambda a, b: run_diagonalization(family, cycles=2),\n"
        "            lambda a, b: decomposition_graph(seq[0], w, w, a, b),\n"
        "            lambda a, b: star_split(ce, ce, a, b)):\n"
        "    try:\n"
        "        ask(seq, seq)\n"
        "    except WitnessMismatch:\n"
        "        print('caught')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fink.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "caught\n" * 9


# --- what one run loads and builds -------------------------------------------

README_FILES = {
    "P.seq": "k=2\n0:2\n1:2\n3:2\n",
    "Q.seq": "k=2\n0:2\n1:2,2:1\n3:2,4:1\n",
    "P2.seq": "k=2\n0:2\n1:2\n",
    "S.blocks": "k=2\n0:2,1:1\n3:2\n",
}
# the first README example of each subcommand, all of which exit 0
README_COMMANDS = {
    "eval": ["eval", "--seq", "P.seq", "--comb", "0^0 + 1^1 + 2^1"],
    "member": ["member", "--seq", "P.seq", "--block", "0:2,1:1,3:1"],
    "span": ["span", "--seq", "P2.seq"],
    "intersect": ["intersect", "--P", "P.seq", "--Q", "Q.seq"],
    "valuation": ["valuation", "--blocks", "S.blocks"],
    "graph": ["graph", "--P", "P.seq", "--Q", "Q.seq", "--block", "0:2,1:1,3:1"],
    "intertwined": ["intertwined", "--P", "P.seq", "--Q", "Q.seq", "--block", "0:2"],
    "extract": ["extract", "--P", "P.seq", "--Q", "Q.seq"],
    "split": ["split", "--P", "P.seq", "--Q", "Q.seq", "--anchor", "0:2",
              "--other", "0:2,1:1,3:1"],
    "small": ["small", "--P", "example13_P", "--Q", "example13_Q", "--k", "2", "--n", "1",
              "--horizon", "21"],
    "diag": ["diag", "--member", "example13_P", "--member", "example13_Q", "--member", "evens",
             "--k", "2", "--n", "1", "--horizon", "15"],
}
# the subcommands that ask about two spans at once
SWEEPING = ("intersect", "extract", "small", "diag")


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    for name, text in README_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    commands = {
        name: [str(tmp_path / arg) if arg in README_FILES else arg for arg in argv]
        for name, argv in README_COMMANDS.items()
    }
    # per command: drop every fink module, run it, list the fink modules loaded
    script = (
        "import contextlib, io, json, sys\n"
        "loaded = {}\n"
        "for name, argv in json.loads(sys.argv[1]).items():\n"
        "    for module in [m for m in sys.modules if m.partition('.')[0] == 'fink']:\n"
        "        del sys.modules[module]\n"
        "    from fink.cli import main\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    loaded[name] = code, sorted(m for m in sys.modules if m.startswith('fink.'))\n"
        "print(json.dumps(loaded))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fink.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert list(loaded) == list(README_COMMANDS)
    for name, (code, modules) in loaded.items():
        assert code == 0, name
        if name in SWEEPING:
            assert "fink.sweep" in modules, name
        else:
            assert not {"fink.sweep", "fink.streams", "fink.diagonal"} & set(modules), name


def outcome(capsys, argv):
    """``main``'s exit code, or the code argparse exits with, and its output."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = f"exit {exc.code}"
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARSER_CASES = [
    *([name, "--help"] for name in README_COMMANDS),
    *([name] for name in README_COMMANDS),
    *([name, "--k", "x"] for name in README_COMMANDS),
    ["span", "--seq", "P.seq", "--cap", "nan"],
    ["intersect", "--P", "P.seq", "--Q", "Q.seq", "--cap", "1e3"],
    ["member", "--seq", "P.seq", "--block", "0:2", "--cap", "3"],
    [],
    ["-h"],
    ["bogus"],
    ["--format", "json", "eval"],
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "none")
def test_one_subcommand_parser_answers_as_the_full_one(capsys, monkeypatch, argv):
    build = cli._build_parser
    built = []

    def recording(names):
        built.append(list(names))
        return build(names)

    monkeypatch.setattr(cli, "_build_parser", recording)
    alone = outcome(capsys, argv)
    # a run that names a subcommand first builds that subcommand alone
    named = argv[:1] if argv[:1] and argv[0] in README_COMMANDS else list(README_COMMANDS)
    assert built == [named]
    monkeypatch.setattr(cli, "_build_parser", lambda names: build())
    assert outcome(capsys, argv) == alone
