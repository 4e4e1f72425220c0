"""Smoke runs of the witness demos: they import the public witness API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["tame_witnesses.py", "wild_fragmentation.py"])
def test_demo_runs_and_every_verdict_passes(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out
