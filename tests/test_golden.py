"""Pinned CLI outputs, replayed as transcripts (README, "Pinned outputs").

Each ``*.txt`` file under ``golden/`` pins one ``fink`` command::

    $ fink <arguments, shell-quoted>
    exit <code>
    out: <one line of stdout>
    err: <one line of stderr>

An output over ``LIMIT`` bytes is pinned by one ``out sha256 <hex> <size>
bytes`` line instead.  A replay runs the command in-process in the
transcript's directory and passes when the run renders to the file's text.
This module replays ``golden/*.txt``; ``golden_ci.py`` replays the slower
``golden/ci/*.txt``.  Run as a script, it rewrites the transcripts it is
given from fresh ``python -m fink`` runs of their first lines.
"""

import difflib
import hashlib
import os
import shlex
import sys
from pathlib import Path

import pytest

from conftest import run, run_module

GOLDEN = Path(__file__).parent / "golden"
LIMIT = 100_000


def render(argv, code, out, err):
    """The transcript of one run."""
    lines = [f"$ fink {shlex.join(argv)}", f"exit {code}"]
    for name, text in (("out", out), ("err", err)):
        data = text.encode()
        if len(data) > LIMIT:
            lines.append(f"{name} sha256 {hashlib.sha256(data).hexdigest()} {len(data)} bytes")
            continue
        *whole, last = text.split("\n")
        lines += [f"{name}: {line}" for line in whole]
        if last:
            lines.append(f"{name} (no newline at end): {last}")
    return "\n".join(lines) + "\n"


def _argv(transcript):
    return shlex.split(transcript.partition("\n")[0].removeprefix("$ fink "))


def replay(capsys, monkeypatch, path):
    """Run ``path``'s command in-process and fail, with a diff, unless the run
    renders to ``path``'s text."""
    expected = path.read_text(encoding="utf-8")
    argv = _argv(expected)
    monkeypatch.chdir(path.parent)
    actual = render(argv, *run(capsys, *argv))
    if actual != expected:
        diff = difflib.unified_diff(
            expected.splitlines(True), actual.splitlines(True), str(path), "replayed"
        )
        pytest.fail(f"{path} does not replay:\n{''.join(diff)}", pytrace=False)


def transcripts(directory):
    return pytest.mark.parametrize(
        "path", sorted(directory.glob("*.txt")), ids=lambda path: path.name
    )


@transcripts(GOLDEN)
def test_transcript(capsys, monkeypatch, path):
    replay(capsys, monkeypatch, path)


def _eval_transcript(tmp_path, out):
    (tmp_path / "P.seq").write_text("k=2\n0:2\n1:2\n3:2\n", encoding="utf-8")
    path = tmp_path / "eval.txt"
    argv = ["eval", "--seq", "P.seq", "--comb", "0^0 + 1^1 + 2^1"]
    path.write_text(render(argv, 0, out, ""), encoding="utf-8")
    return path


def _failure(capsys, monkeypatch, path):
    with pytest.raises(pytest.fail.Exception) as failure:
        replay(capsys, monkeypatch, path)
    message = str(failure.value)
    assert message.startswith(f"{path} does not replay:\n--- {path}\n+++ replayed\n")
    return message


@pytest.mark.parametrize(
    "old, new, diff",
    [
        ("out: 0:2,1:1,3:1\n", "out: 0:2,1:1,3:2\n", ["-out: 0:2,1:1,3:2", "+out: 0:2,1:1,3:1"]),
        ("exit 0\n", "exit 2\n", ["-exit 2", "+exit 0"]),
        ("3:1\n", "3:1\nerr: error: ParseError: x\n", ["-err: error: ParseError: x"]),
    ],
    ids=["stdout-byte", "exit-code", "stderr-line"],
)
def test_a_changed_transcript_fails_with_its_path_and_a_diff(
    capsys, monkeypatch, tmp_path, old, new, diff
):
    path = _eval_transcript(tmp_path, "0:2,1:1,3:1\n")
    replay(capsys, monkeypatch, path)
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    message = _failure(capsys, monkeypatch, path)
    assert [line for line in message.splitlines()[3:] if line.startswith(("-", "+"))] == diff


def test_a_last_line_without_a_newline_is_marked():
    rendered = render(["eval"], 0, "a\nb", "")
    assert rendered == "$ fink eval\nexit 0\nout: a\nout (no newline at end): b\n"


def test_a_hashed_output_that_changed_fails_naming_both_hashes(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(sys.modules[__name__], "LIMIT", 4)
    out, changed = "0:2,1:1,3:1\n", "0:2,1:1,3:2\n"
    replay(capsys, monkeypatch, _eval_transcript(tmp_path, out))
    message = _failure(capsys, monkeypatch, _eval_transcript(tmp_path, changed))
    old, new = (hashlib.sha256(text.encode()).hexdigest() for text in (changed, out))
    assert f"-out sha256 {old} 12 bytes\n+out sha256 {new} 12 bytes\n" in message


if __name__ == "__main__":
    for path in [Path(name).resolve() for name in sys.argv[1:]]:
        argv = _argv(path.read_text(encoding="utf-8"))
        os.chdir(path.parent)
        proc = run_module(*argv)
        path.write_text(render(argv, proc.returncode, proc.stdout, proc.stderr), encoding="utf-8")
