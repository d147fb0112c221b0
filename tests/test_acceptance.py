"""Acceptance gate: every shipped claim, one test and one printed line each.

Each criterion is executed directly at its stated tolerance; the final
criterion runs the packaged `verify` sweep and holds it to the time budget.
The per-criterion lines are collected in conftest and printed in the
terminal summary of every pytest run.
"""
import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES

from oracle import op
from relfacts.observers import premeasure
from relfacts.parity import (
    ConstraintSystem,
    enumerate_assignments,
    ghz_record_system,
    satisfiable,
)
from relfacts.report import build_check_document, build_run_document, render_text
from relfacts.rng import STREAM_SCRIPT, child_generator
from relfacts.scenarios import (
    ALICE_MEMORY,
    BOB_MEMORY,
    CONSTRAINT_PATTERNS,
    NUM_QUBITS,
    SYSTEM_QUBITS,
    ScenarioConfig,
    alice_premeasurements,
    cpl_check,
    run_cdr_suite,
    run_lmz,
)
from relfacts.statevector import StateVector, fidelity
from relfacts.verify import TIME_BUDGET_SECONDS, run_all_checks
from relfacts.observers import Premeasurement, reverse
from relfacts.pauli import PauliString

FULL_SHOTS = 10000


def announce(idx, claim, ok):
    ACCEPTANCE_LINES.append(
        f"ACCEPTANCE {idx:02d} {'PASS' if ok else 'FAIL'}: {claim}")
    assert ok, f"acceptance criterion {idx} failed: {claim}"


@pytest.fixture(scope="module")
def lmz():
    return run_lmz(ScenarioConfig())


@pytest.fixture(scope="module")
def cdr_exact():
    return run_cdr_suite()


def test_acceptance_01_exact_products(lmz, cdr_exact):
    deviations = []
    for c in lmz.constraints:
        deviations.append(abs(c.expectation - c.expected))
    for entry in lmz.final_certificate:
        deviations.append(abs(entry["expectation"] - entry["expected"]))
    for report in cdr_exact:
        for c in report.constraints:
            deviations.append(abs(c.expectation - c.expected))
    ok = len(deviations) >= 12 and max(deviations) <= 1e-9
    announce(1, "exact product expectations are (+1,-1,-1,-1) in both flows "
                f"({len(deviations)} values, max deviation {max(deviations):.3g})", ok)


def test_acceptance_02_commutation_structure():
    bhat = [op(NUM_QUBITS, {SYSTEM_QUBITS[k]: "X", ALICE_MEMORY[k]: "X"})
            for k in range(3)]
    ahat = [op(NUM_QUBITS, {ALICE_MEMORY[k]: "Z"}) for k in range(3)]
    products = []
    for pattern in CONSTRAINT_PATTERNS:
        m = np.eye(1 << NUM_QUBITS)
        for k, slot in enumerate(pattern):
            m = m @ (bhat[k] if slot == "B" else ahat[k])
        products.append(m)
    ok = True
    for i in range(4):
        for j in range(i + 1, 4):
            comm = products[i] @ products[j] - products[j] @ products[i]
            ok = ok and float(np.abs(comm).max()) <= 1e-10
    for k in range(3):
        for j in range(3):
            if j == k:
                anti = bhat[k] @ ahat[j] + ahat[j] @ bhat[k]
                ok = ok and float(np.abs(anti).max()) <= 1e-10
            else:
                comm = bhat[k] @ ahat[j] - ahat[j] @ bhat[k]
                ok = ok and float(np.abs(comm).max()) <= 1e-10
    announce(2, "the four products commute pairwise; each direct/record "
                "same-pair anticommutes (dense check at 1e-10)", ok)


def test_acceptance_03_no_joint_assignment():
    system = ghz_record_system()
    result = satisfiable(system)
    enum = enumerate_assignments(system)
    ok = (not result.satisfiable
          and result.certificate == (1, 2, 3, 4)
          and enum.count == 0 and enum.tested == 64)
    announce(3, "no joint +/-1 assignment satisfies all four constraints "
                "(elimination certificate {1,2,3,4}; enumeration 0 of 64)", ok)


def test_acceptance_04_three_of_four_solvable():
    full = ghz_record_system()
    ok = True
    for drop in range(4):
        kept = tuple(c for i, c in enumerate(full.constraints) if i != drop)
        sub = ConstraintSystem(kept, full.universe)
        result = satisfiable(sub)
        enum = enumerate_assignments(sub)
        ok = ok and result.satisfiable and result.num_solutions == 8
        ok = ok and enum.count == 8
        ok = ok and all(sub.check(result.witness))
    announce(4, "every three-constraint subsystem is satisfiable with "
                "exactly 8 solutions", ok)


def test_acceptance_05_reversal_flow_certifies_per_shot():
    reports = run_cdr_suite(shots=FULL_SHOTS, master_seed=2024)
    ok = all(r.passed for r in reports)
    total = 0
    for report in reports:
        for tally in report.sampling:
            ok = ok and tally.violations == 0 and tally.shots == FULL_SHOTS
            total += tally.shots
    announce(5, f"each reversal experiment certifies its constraint on all "
                f"{total} sampled shots (zero violations)", ok)


def test_acceptance_06_reversal_is_exact_inverse(cdr_exact):
    rng = child_generator(2024, STREAM_SCRIPT, 6)
    ok = True
    for _ in range(100):
        raw = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        idx = np.arange(16)
        raw[(idx >> 3) & 1 == 1] = 0.0  # memory qubit 3 cleared
        state = StateVector(4, raw / np.linalg.norm(raw))
        obs = PauliString.from_map(
            4, {int(q): str(rng.choice(list("XYZ")))
                for q in rng.choice(3, size=int(rng.integers(1, 4)), replace=False)})
        pm = Premeasurement(obs, 3, "friend")
        back = reverse(premeasure(state, pm), pm)
        ok = ok and fidelity(back, state) >= 1.0 - 1e-12
    restoration = cdr_exact[0].restoration
    ok = ok and restoration["fidelity"] >= 1.0 - 1e-12
    announce(6, "reversal inverts the record unitary exactly (100 random "
                "round trips and full register restoration at 1e-12)", ok)


def test_acceptance_07_later_operations_disturb_records(lmz):
    diag = lmz.disturbed_diagnostic
    ok = (diag["gap_exceeds_half"]
          and abs(diag["early_expectation"] - (-1.0)) <= 1e-9
          and diag["record_statuses"] == {"A2": "disturbed", "A3": "disturbed"})
    announce(7, "the mixed record product that held early is destroyed by "
                f"later steps (gap {diag['gap']:.3g} > 0.5, ledger agrees)", ok)


def test_acceptance_08_record_agreement_premise(lmz):
    stage1 = lmz.snapshots[1].state
    pms = alice_premeasurements()
    disturbance = Premeasurement(
        PauliString.from_map(
            NUM_QUBITS, {SYSTEM_QUBITS[0]: "X", ALICE_MEMORY[0]: "X"}),
        BOB_MEMORY[0], "bob")
    result = cpl_check(
        stage1, pms[0].observable, "A1", ALICE_MEMORY[0], disturbance,
        shots=FULL_SHOTS, master_seed=13)
    ok = (result.premise_certified
          and result.intact_matches == FULL_SHOTS
          and (1.0 - result.disturbed_expectation) > 0.1
          and result.violation_demonstrated)
    announce(8, f"record agreement is certain intact ({result.intact_matches}"
                f"/{FULL_SHOTS} shots) and collapses when disturbed "
                f"(expectation {result.disturbed_expectation:.3g})", ok)


def test_acceptance_09_byte_identical_reports():
    ok = True
    for scenario, experiment in (("lmz", None), ("cdr", "all")):
        first = build_run_document(scenario, experiment, 50, 7, 1e-9)
        second = build_run_document(scenario, experiment, 50, 7, 1e-9)
        ok = ok and first.to_json() == second.to_json()
        ok = ok and render_text(first) == render_text(second)
    doc_a = build_check_document("check", ghz_record_system(), {"builtin": "ghz"})
    doc_b = build_check_document("check", ghz_record_system(), {"builtin": "ghz"})
    ok = ok and doc_a.to_json() == doc_b.to_json()
    announce(9, "identical flags reproduce byte-identical reports "
                "(both flows, both formats, and the parity analysis)", ok)


def test_acceptance_10_full_sweep_within_budget():
    rows, elapsed, _ = run_all_checks()
    ok = (len(rows) == 10
          and all(row["passed"] for row in rows)
          and elapsed < TIME_BUDGET_SECONDS)
    announce(10, f"packaged verify sweep passes all {len(rows)} checks in "
                 f"{elapsed:.2f} s (budget {TIME_BUDGET_SECONDS:g} s)", ok)
