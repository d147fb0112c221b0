"""Mutation checks: wrong physics must turn the verdict to FAIL.

Each flow mutant patches one piece of relfacts.scenarios. Every CLI run of
a flow that uses the mutated piece must exit 1 with verdict FAIL, at the
default tolerance and at the largest accepted one; a miscounted tally,
which no tolerance forgives, at 200 shots and the default tolerance only.
Each verify mutant must
make `verify --all` exit 1 and fail the acceptance row that judges the
mutated piece; a GHZ record system that differs from the products the
flows measure fails row 3. Each parity mutant changes what
`check-assignments` prints for the builtin ghz system or a small
constraints file, and the command must exit 1 because its verdict reads
the printed analysis.
"""
import dataclasses
import json

import pytest

from relfacts import observers, parity, scenarios, verify
from relfacts.cli import main
from relfacts.observers import _premeasure_array
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
    # The same friends and memories, premeasuring X instead of Y.
    original = scenarios.alice_premeasurements
    monkeypatch.setattr(scenarios, "alice_premeasurements", lambda: tuple(
        dataclasses.replace(pm, observable=PauliString.single(
            scenarios.NUM_QUBITS, scenarios.SYSTEM_QUBITS[k], "X"))
        for k, pm in enumerate(original())))
    assert_fails((LMZ, CDR), tolerance, capsys)


@pytest.mark.parametrize("tolerance", TOLERANCES)
def test_ledger_marking_nothing_disturbed_fails_lmz(tolerance, monkeypatch, capsys):
    # Only the single-experiment flow disturbs records: each of Bob's lifted
    # observables acts with X on an Alice memory, so A2 and A3 must read
    # disturbed in the final ledger.
    def never_disturbed(steps):
        return tuple(dataclasses.replace(f, status="current") if f.status == "disturbed"
                     else f for f in observers.ledger(steps))

    monkeypatch.setattr(scenarios, "ledger", never_disturbed)
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
    # With a crowded first column, I and X neither commute nor anticommute.
    original = PauliString.dense_matrix

    def crowded_first_column(self):
        matrix = original(self)
        matrix[:, 0] = 1
        return matrix

    monkeypatch.setattr(PauliString, "dense_matrix", crowded_first_column)
    row = assert_verify_row_fails(2, capsys)
    assert row["detail"] == (
        "raised ValueError: factors I, X neither commute nor anticommute")


def test_record_system_reads_the_constraint_signs(monkeypatch):
    monkeypatch.setattr(scenarios, "CONSTRAINT_SIGNS", (-1, 1, 1, 1))
    assert [str(c) for c in parity.ghz_record_system().constraints] == [
        "B1*B2*B3 = -1", "A2*A3*B1 = +1", "A1*A3*B2 = +1", "A1*A2*B3 = +1"]


def record_system_of(*constraints):
    return lambda: parity.ConstraintSystem(
        tuple(parity.ParityConstraint(labels, rhs) for labels, rhs in constraints),
        ("A1", "A2", "A3", "B1", "B2", "B3"))


TWO_SIGNS = record_system_of(                   # signs of (2) and (3) flipped
    (("B1", "B2", "B3"), 1), (("B1", "A2", "A3"), 1),
    (("A1", "B2", "A3"), 1), (("A1", "A2", "B3"), -1))


# Record systems the flows do not measure that are still contradictory, so
# every parity cross-check of theirs holds: only the tie of check 3 to the
# flows' certifications sees them.
@pytest.mark.parametrize("system, detail", [
    (TWO_SIGNS,
     "constraint 2: lmz measured A2*A3*B1 = -1, analysed A2*A3*B1 = +1"),
    (record_system_of(                          # B2 and A2 swapped, (1) <-> (2)
        (("B1", "A2", "B3"), 1), (("B1", "B2", "A3"), -1),
        (("A1", "B2", "A3"), -1), (("A1", "A2", "B3"), -1)),
     "constraint 1: lmz measured B1*B2*B3 = +1, analysed A2*B1*B3 = +1"),
], ids=["two-signs", "swapped-labels"])
def test_unmeasured_record_system_fails_verify(system, detail, monkeypatch, capsys):
    assert not parity.satisfiable(system()).satisfiable
    monkeypatch.setattr(parity, "ghz_record_system", system)
    assert assert_verify_row_fails(3, capsys)["detail"] == detail


def test_builtin_ghz_analyses_the_current_record_system(monkeypatch, capsys):
    # The command and check 3 read the same system: the one verify judges.
    monkeypatch.setattr(parity, "ghz_record_system", TWO_SIGNS)
    assert main(["check-assignments", "--builtin", "ghz", "--format", "json"]) == 0
    printed = json.loads(capsys.readouterr().out)["results"]["system"]["constraints"]
    assert printed == [str(c) for c in TWO_SIGNS().constraints]
    assert printed[1] == "A2*A3*B1 = +1"


def test_sign_flipped_enumeration_fails_verify(monkeypatch, capsys):
    # The GHZ system and its three-constraint subsystems keep their counts
    # under a global sign flip; row 4's asymmetric system does not.
    original = parity.enumerate_assignments

    def flipped_rhs(system):
        return original(parity.ConstraintSystem(
            tuple(parity.ParityConstraint(c.variables, -c.rhs)
                  for c in system.constraints),
            system.universe))

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


@pytest.mark.parametrize("witness, printed", [
    (None, "witness: none"),
    ({"a": 1, "b": -1}, "witness: a=+1 b=-1"),            # no value for c
    ({"a": 0, "b": -1, "c": -1}, "witness: a=+0 b=-1 c=-1"),
], ids=["null", "missing-variable", "zero-value"])
def test_malformed_witness_fails_check_assignments(
        witness, printed, monkeypatch, capsys, tmp_path):
    # A witness is checked, not trusted: it fails the verdict (exit 1)
    # rather than crashing the command or exiting 2 as for bad input.
    original = parity.satisfiable
    monkeypatch.setattr(parity, "satisfiable", lambda system: dataclasses.replace(
        original(system), witness=witness))
    path = tmp_path / "sat.txt"
    path.write_text("a*b = -1\nb*c = 1\n")
    assert main(["check-assignments", "--constraints", str(path), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "FAIL"
    assert doc["results"]["solve"]["witness"] == witness
    assert doc["results"]["consistency"]["witness_verified"] is False
    assert main(["check-assignments", "--constraints", str(path)]) == 1
    out = capsys.readouterr().out
    assert printed in out.splitlines()
    assert "verdict: FAIL" in out


@pytest.mark.parametrize("certificate", [(1, 2, 3, 5), (1, 2, 3, 4, 4, 4)],
                         ids=["out-of-range", "repeated"])
def test_malformed_certificate_fails_check_assignments(certificate, monkeypatch, capsys):
    # A certificate is checked, not trusted: an index outside 1..4 fails the
    # verdict (exit 1) instead of exiting 2 as for bad input, and a repeated
    # index is not a subset even though it multiplies to 1 = -1.
    original = parity.satisfiable
    monkeypatch.setattr(parity, "satisfiable", lambda system: dataclasses.replace(
        original(system), certificate=certificate))
    results = assert_ghz_fails(capsys)
    assert results["solve"]["certificate"] == list(certificate)
    assert results["consistency"]["certificate_verified"] is False
    assert main(["check-assignments", "--builtin", "ghz"]) == 1
    out = capsys.readouterr().out
    subset = ",".join(map(str, certificate))
    assert (f"certificate: constraints {{{subset}}} multiply to the "
            "contradiction 1 = -1") in out.splitlines()
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


def test_product_identity_misread_as_contradiction_fails_check_assignments(
        monkeypatch, capsys, tmp_path):
    # Reading "no residual variable OR rhs -1" as the contradiction makes the
    # satisfiable a*b = -1, b*c = 1 print its product a*c = -1 as one.
    original = parity.product_identity

    def misread(system, subset=None):
        found = original(system, subset)
        return dataclasses.replace(found, is_contradiction=(
            not found.residual_variables or found.rhs == -1))

    monkeypatch.setattr(parity, "product_identity", misread)
    path = tmp_path / "sat.txt"
    path.write_text("a*b = -1\nb*c = 1\n")
    assert main(["check-assignments", "--constraints", str(path), "--format", "json"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["solve"]["satisfiable"] is True
    assert results["product_identity"]["is_contradiction"] is True
    assert results["consistency"]["product_identity_verified"] is False
    assert main(["check-assignments", "--constraints", str(path)]) == 1
    out = capsys.readouterr().out
    assert "product of all constraints: a*c = -1  <- contradiction" in out
    assert "verdict: FAIL" in out
