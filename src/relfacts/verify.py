"""Programmatic acceptance checks.

Each check certifies one physics or toolchain claim end to end and reports
a pass/fail row. The rows are deterministic (no wall-clock values inside
the report); the final row checks the whole sweep against a 5-second
budget. The CLI layer prints the sweep's wall time and each check's own
wall time to stderr.
"""
from __future__ import annotations

import time
from itertools import combinations

import numpy as np

from . import parity
from .observers import Premeasurement, premeasure, reverse
from .pauli import PauliString, product_of
from .rng import STREAM_SCRIPT, child_generator
from .report import build_check_document, build_run_document, render_text
from .scenarios import (
    ALICE_MEMORY,
    BOB_MEMORY,
    MAX_TOLERANCE,
    NUM_QUBITS,
    SYSTEM_QUBITS,
    ScenarioConfig,
    alice_premeasurements,
    cpl_check,
    constraint_table,
    lifted_direct_observables,
    record_readout_observables,
    run_cdr,
    run_cdr_suite,
    run_lmz,
)
from .statevector import StateVector, fidelity, prepare_ghz, zero_state

FULL_SHOTS = 10000
TIME_BUDGET_SECONDS = 5.0


def _stage_one():
    """Prepared register after all three friend premeasurements."""
    state = prepare_ghz(zero_state(NUM_QUBITS), SYSTEM_QUBITS)
    pms = alice_premeasurements()
    for pm in pms:
        state = premeasure(state, pm)
    return state, pms


def _monomial(matrix: np.ndarray) -> tuple:
    """(rows, values) of a square matrix with exactly one nonzero per column:
    column j holds values[j] at row rows[j]. Raises ValueError otherwise,
    since every Pauli-string matrix is monomial.

    The matrix is scanned once in its own row-major order and the row of
    each column is scattered into place; scanning the transpose would stride
    a whole row per entry, which is several times slower and varies with
    cache pressure from other processes."""
    rows, cols = np.nonzero(matrix != 0)
    columns = np.arange(matrix.shape[1])
    if not np.array_equal(np.sort(cols), columns):
        raise ValueError(
            "dense matrix is not monomial: a column holds no nonzero or several")
    column_rows = np.empty_like(columns)
    column_rows[cols] = rows
    return column_rows, matrix[column_rows, columns]


def _monomial_product(a: tuple, b: tuple) -> tuple:
    """The monomial a @ b: column j of b picks column rows_b[j] of a."""
    (rows_a, values_a), (rows_b, values_b) = a, b
    return rows_a[rows_b], values_a[rows_b] * values_b


def _bracket_norm(a: tuple, b: tuple, sign: int) -> float:
    """Frobenius norm of a @ b + sign * (b @ a), column by column: where the
    two products put their nonzero in the same row the column contributes
    |x + sign * y|^2, elsewhere |x|^2 + |y|^2."""
    (rows_ab, ab), (rows_ba, ba) = _monomial_product(a, b), _monomial_product(b, a)
    squares = np.where(
        rows_ab == rows_ba,
        np.abs(ab + sign * ba) ** 2,
        np.abs(ab) ** 2 + np.abs(ba) ** 2)
    return float(np.sqrt(squares.sum()))


def run_all_checks(full_shots: int = FULL_SHOTS) -> tuple:
    """Run every acceptance check.

    Returns (rows, elapsed_seconds, check_seconds): the report rows, the
    sweep's wall time, and each row's own wall time in row order. Wall
    times stay out of the rows, so the report is deterministic.
    """
    rows = []
    check_seconds = []
    started = time.monotonic()

    def add(idx: int, claim: str, fn) -> None:
        check_started = time.monotonic()
        try:
            passed, detail = fn()
        except Exception as exc:  # a failing check must not kill the sweep
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        check_seconds.append(time.monotonic() - check_started)
        rows.append({
            "id": idx, "claim": claim, "passed": bool(passed), "detail": detail})

    def check_exact_products():
        lmz = run_lmz(ScenarioConfig())
        expected = {1: 1, 2: -1, 3: -1, 4: -1}
        deviations = []
        for c in lmz.constraints:
            if c.kind == "operator":
                deviations.append(abs(c.expectation - expected[c.constraint_id]))
        for rep in run_cdr_suite():
            for c in rep.constraints:
                deviations.append(abs(c.expectation - expected[c.constraint_id]))
        worst = max(deviations)
        return (worst <= 1e-9 and len(deviations) >= 12,
                f"{len(deviations)} product expectations, max deviation {worst:.3e}")

    def check_commutation():
        # Dense-sourced and independent of pauli.commutes/_phased_product:
        # every operand is an explicit kron-built matrix, read back as a
        # monomial (one nonzero per column) and multiplied entry by entry.
        # Entries are +/-1 or +/-i, so every product and norm is exact.
        _, pms = _stage_one()
        bhats = lifted_direct_observables(pms)
        ahats = record_readout_observables()
        specs = constraint_table(bhats, ahats)
        products = [_monomial(product_of(spec.observables).dense_matrix())
                    for spec in specs]
        worst_comm = max(
            _bracket_norm(a, b, -1) for a, b in combinations(products, 2))
        worst_anti = max(
            _bracket_norm(_monomial(b.dense_matrix()), _monomial(a.dense_matrix()), +1)
            for b, a in zip(bhats, ahats))
        return (worst_comm <= 1e-10 and worst_anti <= 1e-10,
                f"max commutator norm {worst_comm:.3e}, "
                f"max same-pair anticommutator norm {worst_anti:.3e}")

    def check_no_assignment():
        analysis = parity.analyze(parity.ghz_record_system())
        solve = analysis["solve"]
        enum = analysis["enumeration"]
        identity = analysis["product_identity"]
        ok = (not solve["satisfiable"]
              and solve["certificate"] == [1, 2, 3, 4]
              and enum["count"] == 0 and enum["tested"] == 64
              and identity["is_contradiction"]
              and analysis["consistent"])
        return ok, (
            f"{enum['count']}/{enum['tested']} assignments satisfy all four; "
            f"certificate {{{','.join(map(str, solve['certificate']))}}}")

    def check_three_of_four():
        system = parity.ghz_record_system()
        counts = []
        for drop in range(1, 5):
            kept = tuple(
                c for i, c in enumerate(system.constraints, 1) if i != drop)
            sub = parity.ConstraintSystem(kept, system.universe)
            result = parity.satisfiable(sub)
            enum = parity.enumerate_assignments(sub)
            if not (result.satisfiable and all(sub.check(result.witness))):
                return False, f"subsystem without ({drop}) reported unsatisfiable"
            counts.append(enum.count)
        # Every system above keeps its count when all signs flip. This one
        # has 2 solutions and its flip has none, so an enumeration that
        # misreads the right-hand sides fails here.
        asymmetric = parity.ConstraintSystem.from_constraints(
            parity.ParityConstraint.of(pair, 1)
            for pair in (("x1", "x2"), ("x2", "x3"), ("x1", "x3")))
        return (all(c == 8 for c in counts)
                and parity.enumerate_assignments(asymmetric).count == 2,
                f"solution counts without each constraint: {counts}")

    def check_reversal_per_shot():
        reports = run_cdr_suite(shots=full_shots, master_seed=11)
        for rep in reports:
            record = next(c for c in rep.constraints if c.kind == "record")
            if record.violations != 0 or record.shots != full_shots:
                return False, (
                    f"experiment {rep.experiment_id}: {record.violations} "
                    f"violations in {record.shots} shots")
            if not rep.passed:
                return False, f"experiment {rep.experiment_id} report failed"
        return True, (
            f"4 experiments x {full_shots} shots, every sampled product correct")

    def check_reversal_identity():
        rng = child_generator(2024, STREAM_SCRIPT, 6)
        worst = 1.0
        cases = 100
        for _ in range(cases):
            amps = np.zeros(16, dtype=complex)
            half = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            amps[:8] = half / np.linalg.norm(half)
            state = StateVector(4, amps)
            factor = "XYZ"[rng.integers(0, 3)]
            qubit = int(rng.integers(0, 3))
            pm = Premeasurement(
                PauliString.single(4, qubit, factor), memory=3, owner="friend")
            worst = min(worst, fidelity(reverse(premeasure(state, pm), pm), state))
        restoration = run_cdr(ScenarioConfig(
            bob_mode="cdr-reversal", experiment_id=1)).restoration
        ok = worst >= 1.0 - 1e-12 and restoration["fidelity"] >= 1.0 - 1e-12
        return ok, (
            f"min round-trip fidelity {worst:.15f} over {cases} random cases; "
            f"full restoration fidelity {restoration['fidelity']:.15f}")

    def check_disturbed_records():
        lmz = run_lmz(ScenarioConfig())
        diag = lmz.disturbed_diagnostic
        statuses = diag["record_statuses"]
        ok = (diag["gap_exceeds_half"]
              and abs(diag["early_expectation"] + 1.0) <= 1e-9
              and statuses.get("A2") == "disturbed"
              and statuses.get("A3") == "disturbed")
        return ok, (
            f"mixed record product {diag['early_expectation']:+.6f} -> "
            f"{diag['final_expectation']:+.6f} (gap {diag['gap']:.6f}) once "
            "later premeasurements disturb the records")

    def check_record_agreement():
        state, pms = _stage_one()
        bhats = lifted_direct_observables(pms)
        bob_pm = Premeasurement(bhats[0], BOB_MEMORY[0], "bob")
        result = cpl_check(
            state, pms[0].observable, "A1", ALICE_MEMORY[0], bob_pm,
            shots=full_shots, master_seed=13)
        drop = result.intact_expectation - result.disturbed_expectation
        ok = (result.premise_certified
              and result.intact_matches == full_shots
              and drop > MAX_TOLERANCE
              and result.violation_demonstrated
              and abs(result.operator_product_after - 1.0) <= 1e-9)
        return ok, (
            f"intact agreement {result.intact_matches}/{full_shots} "
            f"(expectation {result.intact_expectation:+.6f}); disturbed "
            f"expectation {result.disturbed_expectation:+.6f}, drop {drop:.6f}")

    def check_determinism():
        jobs = (
            ("lmz", None, 50, 7),
            ("cdr", "all", 50, 7),
        )
        for scenario, experiment, shots, seed in jobs:
            first = build_run_document(scenario, experiment, shots, seed, 1e-9)
            second = build_run_document(scenario, experiment, shots, seed, 1e-9)
            if first.to_json() != second.to_json():
                return False, f"JSON mismatch for {scenario} seed {seed}"
            if render_text(first) != render_text(second):
                return False, f"text mismatch for {scenario} seed {seed}"
        doc_a = build_check_document(
            "check-assignments --builtin ghz", parity.ghz_record_system(),
            {"builtin": "ghz"})
        doc_b = build_check_document(
            "check-assignments --builtin ghz", parity.ghz_record_system(),
            {"builtin": "ghz"})
        ok = doc_a.to_json() == doc_b.to_json()
        return ok, "scenario and constraint reports byte-identical across reruns"

    add(1, "exact product expectations are (+1,-1,-1,-1)", check_exact_products)
    add(2, "products commute pairwise; direct/record pairs anticommute",
        check_commutation)
    add(3, "no joint assignment satisfies all four constraints",
        check_no_assignment)
    add(4, "every three-constraint subsystem has exactly 8 solutions",
        check_three_of_four)
    add(5, "each reversal experiment certifies its constraint per shot",
        check_reversal_per_shot)
    add(6, "reversal is an exact inverse and restores the register",
        check_reversal_identity)
    add(7, "later operations break the mixed record product",
        check_disturbed_records)
    add(8, "record agreement is certain intact and collapses when disturbed",
        check_record_agreement)
    add(9, "identical flags reproduce byte-identical reports", check_determinism)

    elapsed = time.monotonic() - started
    add(10, f"full sweep completes within {TIME_BUDGET_SECONDS:g} s",
        lambda: (elapsed < TIME_BUDGET_SECONDS,
                 "measured wall time reported on stderr"))
    return rows, elapsed, check_seconds
