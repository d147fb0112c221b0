"""Mutation checks: wrong physics must turn the verdict to FAIL.

Each mutant patches one piece of relfacts.scenarios. Every CLI run of a
flow that uses the mutated piece must exit 1 with verdict FAIL, at the
default tolerance and at the largest accepted one.
"""
import pytest

from relfacts import scenarios
from relfacts.cli import main

LMZ = ["run", "lmz"]
CDR = ["run", "cdr", "--experiment", "all"]
TOLERANCES = [None, "0.49"]


def assert_fails(runs, tolerance, capsys):
    extra = [] if tolerance is None else ["--tolerance", tolerance]
    for argv in runs:
        assert main(argv + extra) == 1, argv
        assert "verdict: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", TOLERANCES)
@pytest.mark.parametrize("index", range(4))
def test_flipped_constraint_sign_fails_both_flows(index, tolerance, monkeypatch, capsys):
    flipped = list(scenarios.CONSTRAINT_SIGNS)
    flipped[index] = -flipped[index]
    monkeypatch.setattr(scenarios, "CONSTRAINT_SIGNS", tuple(flipped))
    assert_fails((LMZ, CDR), tolerance, capsys)


# A pattern slot read from the wrong party. Every mutated pattern keeps a B
# slot: cdr reverses the B pairs and no real pattern lacks one.
@pytest.mark.parametrize("tolerance", TOLERANCES)
@pytest.mark.parametrize("index, pattern", [(0, ("B", "B", "A")), (3, ("A", "B", "B"))])
def test_swapped_pattern_slot_fails_both_flows(index, pattern, tolerance, monkeypatch, capsys):
    patterns = list(scenarios.CONSTRAINT_PATTERNS)
    patterns[index] = pattern
    monkeypatch.setattr(scenarios, "CONSTRAINT_PATTERNS", tuple(patterns))
    assert_fails((LMZ, CDR), tolerance, capsys)


@pytest.mark.parametrize("tolerance", TOLERANCES)
def test_lift_without_memory_x_fails_lmz(tolerance, monkeypatch, capsys):
    # Only the single-experiment flow lifts Bob's observables.
    monkeypatch.setattr(scenarios, "lift", lambda obs, pm: obs)
    assert_fails((LMZ,), tolerance, capsys)


@pytest.mark.parametrize("tolerance", TOLERANCES)
def test_skipped_reversal_fails_cdr(tolerance, monkeypatch, capsys):
    # Only the four-experiment flow reverses records.
    monkeypatch.setattr(scenarios, "reverse", lambda state, pm: state)
    assert_fails((CDR,), tolerance, capsys)


@pytest.mark.parametrize("tolerance", TOLERANCES)
def test_alice_premeasures_x_fails_both_flows(tolerance, monkeypatch, capsys):
    original = scenarios.alice_premeasurements
    monkeypatch.setattr(scenarios, "alice_premeasurements", lambda: original("X"))
    assert_fails((LMZ, CDR), tolerance, capsys)
