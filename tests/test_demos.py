"""Smoke runs of the demos, each checked against what its output claims."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("name", ["tame_witnesses.py", "wild_fragmentation.py"])
def test_demo_runs_and_every_verdict_passes(name, capsys):
    out = run_demo(name, capsys)
    assert "pass" in out and "FAIL" not in out


def test_sl2p_demo_brackets_kappa_for_irreducible_reps(capsys):
    out = run_demo("sl2p_expanders.py", capsys)
    lines = out.splitlines()
    header = next(i for i, line in enumerate(lines) if "kappa_lb" in line)
    rows = [line.split() for line in lines[header + 1:header + 4]]
    assert [int(row[0]) for row in rows] == [3, 5, 7]
    for row in rows:
        assert row[2] == "True"
        assert 0 < float(row[3]) <= float(row[4])
    assert "verdict: sampled-pass" in out


def test_pencil_demo_recovers_every_block_multiset(capsys):
    out = run_demo("pencil_roundtrip.py", capsys)
    roundtrips = [line for line in out.splitlines() if " -> " in line]
    assert len(roundtrips) == 5
    assert all(line.endswith("-> ok") for line in roundtrips)
