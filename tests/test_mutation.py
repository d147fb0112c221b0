"""Mutation checks: wrong physics must turn the verdict to FAIL.

Each constraint sign is flipped in turn. Both flows read the constraint
table when they run, so every flip must make both CLI runs exit 1 with
verdict FAIL, at the default tolerance and at the largest accepted one.
"""
import pytest

from relfacts import scenarios
from relfacts.cli import main

RUNS = (["run", "lmz"], ["run", "cdr", "--experiment", "all"])


@pytest.mark.parametrize("tolerance", [None, "0.49"])
@pytest.mark.parametrize("index", range(4))
def test_flipped_constraint_sign_fails_both_flows(index, tolerance, monkeypatch, capsys):
    flipped = list(scenarios.CONSTRAINT_SIGNS)
    flipped[index] = -flipped[index]
    monkeypatch.setattr(scenarios, "CONSTRAINT_SIGNS", tuple(flipped))
    extra = [] if tolerance is None else ["--tolerance", tolerance]
    for argv in RUNS:
        assert main(argv + extra) == 1, argv
        assert "verdict: FAIL" in capsys.readouterr().out
