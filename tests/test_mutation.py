"""Mutation checks: wrong physics must turn the verdict to FAIL.

Each flow mutant patches one piece of relfacts.scenarios. Every CLI run of
a flow that uses the mutated piece must exit 1 with verdict FAIL, at the
default tolerance and at the largest accepted one; a miscounted tally,
which no tolerance forgives, at 200 shots and the default tolerance only.
Each verify mutant must
make `verify --all` exit 1 and fail the acceptance row that judges the
mutated piece. Each parity mutant changes what `check-assignments --builtin
ghz` prints, and the command must exit 1 because its verdict reads the
printed analysis.
"""
import dataclasses
import json

import pytest

from relfacts import parity, scenarios, verify
from relfacts.cli import main
from relfacts.observers import Ledger, _premeasure_array
from relfacts.pauli import PauliString

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


@pytest.mark.parametrize("tolerance", TOLERANCES)
def test_ledger_marking_nothing_disturbed_fails_lmz(tolerance, monkeypatch, capsys):
    # Only the single-experiment flow disturbs records: each of Bob's lifted
    # observables acts with X on an Alice memory. The ledger then prints
    # statuses its steps do not imply.
    monkeypatch.setattr(Ledger, "mark_disturbed", lambda self, applied, num_qubits: [])
    assert_fails((LMZ,), tolerance, capsys)


def assert_verify_row_fails(row_id, capsys):
    assert main(["verify", "--all", "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)["results"]["checks"]
    row = next(r for r in rows if r["id"] == row_id)
    assert row["passed"] is False
    return row


def test_memory_x_readouts_fail_verify(monkeypatch, capsys):
    # X readouts commute with Bob's lifted X_sys X_mem, so the same-pair
    # anticommutator is no longer zero.
    monkeypatch.setattr(verify, "record_readout_observables", lambda: tuple(
        PauliString.single(scenarios.NUM_QUBITS, m, "X") for m in scenarios.ALICE_MEMORY))
    row = assert_verify_row_fails(2, capsys)
    assert "anticommutator norm 0.000e+00" not in row["detail"]


def test_non_monomial_dense_matrix_fails_verify(monkeypatch, capsys):
    original = PauliString.dense_matrix

    def crowded_first_column(self):
        matrix = original(self)
        matrix[:, 0] = 1
        return matrix

    monkeypatch.setattr(PauliString, "dense_matrix", crowded_first_column)
    row = assert_verify_row_fails(2, capsys)
    assert "not monomial" in row["detail"]


def test_sign_flipped_enumeration_fails_verify(monkeypatch, capsys):
    # The GHZ system and its three-constraint subsystems keep their counts
    # under a global sign flip; row 4's asymmetric system does not.
    original = parity.enumerate_assignments

    def flipped_rhs(system, return_assignments=False):
        flipped = parity.ConstraintSystem(
            tuple(parity.ParityConstraint(c.variables, -c.rhs)
                  for c in system.constraints),
            system.universe)
        return original(flipped, return_assignments)

    monkeypatch.setattr(parity, "enumerate_assignments", flipped_rhs)
    row = assert_verify_row_fails(4, capsys)
    assert row["detail"] == "solution counts without each constraint: [8, 8, 8, 8]"


@pytest.fixture
def sign_flipped_products(monkeypatch):
    # Triple products cancel the flip, so the four certified constraints
    # still hold; the same-time product after Bob's premeasurement reads -1.
    original = PauliString.__mul__

    def flipped(self, other):
        product = original(self, other)
        return product.with_sign(-product.sign)

    monkeypatch.setattr(PauliString, "__mul__", flipped)


@pytest.mark.parametrize("tolerance", TOLERANCES)
def test_sign_flipped_products_fail_lmz(tolerance, sign_flipped_products, capsys):
    assert_fails((LMZ,), tolerance, capsys)


def test_sign_flipped_products_fail_verify(sign_flipped_products, capsys):
    assert_verify_row_fails(8, capsys)


@pytest.fixture
def flipped_outcome_keys(monkeypatch):
    # Every key of a three-record tally flips, so each key's own product
    # contradicts the expected sign. The tally derives its violations from
    # the keys, so every shot counts as one.
    original = scenarios.sample_records
    flip = str.maketrans("+-", "-+")

    def flipped_keys(state, **kwargs):
        tally = original(state, **kwargs)
        return dataclasses.replace(tally, outcome_counts={
            key.translate(flip): n for key, n in tally.outcome_counts.items()})

    monkeypatch.setattr(scenarios, "sample_records", flipped_keys)


@pytest.fixture
def swapped_marginals(monkeypatch):
    # The tally constructor reports each record's -1 count as its +1 count.
    # Every 5-sigma band is symmetric about 1/2, so each marginal stays in
    # band and the flows, which trust the constructor, still pass; only
    # verify's own re-derivation from the outcome keys sees it.
    original = scenarios.SampleTally.__post_init__

    def swapped(tally):
        original(tally)
        object.__setattr__(tally, "marginals", tuple(
            dataclasses.replace(m, plus_count=tally.shots - m.plus_count)
            for m in tally.marginals))

    monkeypatch.setattr(scenarios.SampleTally, "__post_init__", swapped)


@pytest.mark.parametrize("mutant", ["flipped_outcome_keys"])
@pytest.mark.parametrize("argv", [LMZ, CDR], ids=["lmz", "cdr"])
def test_miscounted_tallies_fail_both_flows(mutant, argv, request, capsys):
    request.getfixturevalue(mutant)
    assert_fails((argv + ["--shots", "200"],), None, capsys)


def test_flipped_outcome_keys_fail_verify(flipped_outcome_keys, capsys):
    row = assert_verify_row_fails(5, capsys)
    assert row["detail"] == (
        f"experiment 1: {verify.FULL_SHOTS} violations in {verify.FULL_SHOTS} shots")


def test_swapped_marginals_fail_verify(swapped_marginals, capsys):
    row = assert_verify_row_fails(5, capsys)
    assert row["detail"].startswith("experiment 1: outcome keys hold ")


@pytest.fixture
def unsampled_records(monkeypatch):
    # Every record certification runs as if --shots were 0: no tally is
    # drawn and each record row reports 0 shots.
    original = scenarios._certify_records

    def unsampled(state, constraint_id, stage, target, config, *args):
        return original(state, constraint_id, stage, target,
                        dataclasses.replace(config, shots=0), *args)

    monkeypatch.setattr(scenarios, "_certify_records", unsampled)


@pytest.mark.parametrize("argv", [LMZ, CDR], ids=["lmz", "cdr"])
def test_unsampled_records_fail_both_flows(argv, unsampled_records, capsys):
    assert_fails((argv + ["--shots", "200"],), None, capsys)


def test_round_trip_that_is_not_the_identity_fails_verify(monkeypatch, capsys):
    # Swapping two amplitudes of each premeasured row keeps every norm; the
    # round trip then misses its input on most premeasurements.
    def swapped(stack, pm):
        out = _premeasure_array(stack, pm)
        out[..., [0, 1]] = out[..., [1, 0]]
        return out

    monkeypatch.setattr(verify, "_premeasure_array", swapped)
    row = assert_verify_row_fails(6, capsys)
    assert row["detail"].startswith("min round-trip fidelity 0.")


def assert_ghz_fails(capsys):
    assert main(["check-assignments", "--builtin", "ghz", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "FAIL"
    return doc["results"]


def test_null_certificate_fails_check_assignments(monkeypatch, capsys):
    # Checking a missing certificate as the default subset would multiply
    # all four constraints, which for GHZ is also the contradiction.
    original = parity.satisfiable
    monkeypatch.setattr(parity, "satisfiable", lambda system: dataclasses.replace(
        original(system), certificate=None))
    results = assert_ghz_fails(capsys)
    assert results["solve"]["certificate"] is None
    assert results["consistency"]["certificate_verified"] is False
    assert main(["check-assignments", "--builtin", "ghz"]) == 1
    out = capsys.readouterr().out
    assert "certificate: none" in out
    assert "verdict: FAIL" in out


def test_null_enumeration_fails_check_assignments(monkeypatch, capsys):
    monkeypatch.setattr(parity, "enumerate_assignments", lambda system: None)
    results = assert_ghz_fails(capsys)
    assert results["enumeration"] is None
    assert results["consistency"]["solver_enumeration_agree"] is False


def test_sign_flipped_constraint_text_fails_check_assignments(monkeypatch, capsys):
    original = parity.ParityConstraint.__str__
    flip = str.maketrans("+-", "-+")
    monkeypatch.setattr(parity.ParityConstraint, "__str__",
                        lambda c: original(c).translate(flip))
    results = assert_ghz_fails(capsys)
    assert results["system"]["constraints"][0] == "B1*B2*B3 = -1"
    assert results["consistency"]["constraints_parse_back"] is False
