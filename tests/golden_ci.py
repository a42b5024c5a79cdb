"""Replays the transcripts in ``golden/ci/``: the runs at the 2^16-block cap
and the 11-generator span listing, which are too slow for tier-1.

This file's name lies outside pytest's ``test_*.py`` pattern, so the tier-1
run does not collect it; one CI step names it:
``python -m pytest tests/golden_ci.py``.
"""

from test_golden import GOLDEN, replay, transcripts


@transcripts(GOLDEN / "ci")
def test_transcript(capsys, monkeypatch, path):
    replay(capsys, monkeypatch, path)
