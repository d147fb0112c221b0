"""Programmatic acceptance checks.

Each check certifies one physics or toolchain claim end to end and reports
a pass/fail row. The evidence a check reads (a flow's report, a parity
analysis, monomial matrices) is built once per sweep, on first use, and
its judge returns (passed, detail) from that evidence alone. The lmz flow,
the reversal suite and the GHZ analysis are each built through the same
path as their CLI report and rendered in both formats; check 9 builds each
of those reports once more from the same flags and compares the bytes. The
rows are deterministic; the final row checks the whole sweep against a
5-second budget. The CLI prints the sweep's wall time, then the time of
each piece of evidence and of each judge, to stderr.
"""
from __future__ import annotations

import dataclasses
import time
from itertools import combinations

import numpy as np

from . import parity
from .observers import Premeasurement, _premeasure_array, _require_cleared_memory
from .pauli import PauliString, product_of
from .rng import STREAM_SCRIPT, child_generator
from .report import (
    build_check_document,
    build_run_document,
    from_cdr_suite,
    from_parity,
    from_scenario,
    render_text,
    run_flow,
)
from .scenarios import (
    DEFAULT_TOLERANCE,
    MAX_TOLERANCE,
    alice_premeasurements,
    constraint_table,
    lifted_direct_observables,
    record_readout_observables,
)
from .statevector import PHYS_TOL

FULL_SHOTS = 10000
ROUND_TRIPS = 100
TIME_BUDGET_SECONDS = 5.0

# The flags of the three reports check 9 builds twice. The first build of
# each is also the evidence the other checks read.
LMZ_FLAGS = ("lmz", None, FULL_SHOTS, 13, DEFAULT_TOLERANCE)
CDR_FLAGS = ("cdr", "all", FULL_SHOTS, 11, DEFAULT_TOLERANCE)
GHZ_COMMAND = "check-assignments --builtin ghz"
GHZ_CONFIG = {"builtin": "ghz"}


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


def _single_monomials() -> dict:
    """Monomial of each single-qubit factor, read back from its explicit
    2x2 matrix."""
    return {f: _monomial(PauliString.from_label(f).dense_matrix()) for f in "IXYZ"}


def _kron_monomial(p: PauliString, singles: dict) -> tuple:
    """Monomial of p as the kron of its factors' monomials `singles`, built
    in monomial form: 2^n entries, the same rows and values as reading back
    p's dense 2^n x 2^n matrix. Qubit n-1 varies slowest, as in dense_matrix."""
    rows, values = np.zeros(1, dtype=np.int64), np.array([p.sign], dtype=complex)
    for f in reversed(p.factors):
        r, v = singles[f]
        rows = (rows[:, None] * 2 + r[None, :]).ravel()
        values = (values[:, None] * v[None, :]).ravel()
    return rows, values


def _monomials() -> tuple:
    """(products, pairs): the four constraint products and each (lifted
    direct, record readout) pair as monomial krons of the explicit
    single-qubit matrices, so independent of pauli.commutes and its phases."""
    singles = _single_monomials()
    bhats = lifted_direct_observables(alice_premeasurements())
    ahats = record_readout_observables()
    products = [_kron_monomial(product_of(spec.observables), singles)
                for spec in constraint_table(bhats, ahats)]
    pairs = [(_kron_monomial(b, singles), _kron_monomial(a, singles))
             for b, a in zip(bhats, ahats)]
    return products, pairs


def _subsystems() -> list:
    """Analyses of the GHZ system without each constraint in turn, then of
    x1x2 = x2x3 = x1x3 = +1."""
    ghz = parity.ghz_record_system()
    kept = (ghz.constraints[:i] + ghz.constraints[i + 1:] for i in range(4))
    systems = [parity.ConstraintSystem(k, ghz.universe) for k in kept]
    systems.append(parity.parse_constraints("x1*x2 = 1\nx2*x3 = 1\nx1*x3 = 1"))
    return [parity.analyze(system) for system in systems]


def _require_unit_rows(stack: np.ndarray) -> None:
    """Raise ValueError unless every row of `stack` has norm 1 within
    PHYS_TOL, as a StateVector of that row would require."""
    norms = np.linalg.norm(stack, axis=-1)
    off = np.flatnonzero(np.abs(norms - 1.0) > PHYS_TOL)
    if off.size:
        raise ValueError(
            f"row {off[0]} is not normalized: |psi| = {float(norms[off[0]])!r}")


def _round_trips() -> list:
    """Fidelity of premeasure-then-reverse for 100 random 4-qubit states and
    single-qubit Pauli premeasurements onto memory qubit 3, in draw order.

    The cases are drawn one by one from one stream, then grouped by
    (factor, qubit); each group of k cases is premeasured and reversed as
    one (k, 16) stack. Per row, as premeasure() and reverse() would check
    one state: the input's norm is 1 within PHYS_TOL, its memory reads 0
    before premeasuring, and the norm is still 1 after each application.
    Each fidelity is one |<back|state>|^2 per row, as fidelity() computes it.
    """
    rng = child_generator(2024, STREAM_SCRIPT, 6)
    states = np.zeros((ROUND_TRIPS, 16), dtype=complex)
    groups = {}
    for row in range(ROUND_TRIPS):
        half = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        states[row, :8] = half / np.linalg.norm(half)
        factor = "XYZ"[rng.integers(0, 3)]
        qubit = int(rng.integers(0, 3))
        groups.setdefault((factor, qubit), []).append(row)
    _require_unit_rows(states)
    fidelities = [0.0] * ROUND_TRIPS
    for (factor, qubit), rows in groups.items():
        pm = Premeasurement(
            PauliString.single(4, qubit, factor), memory=3, owner="friend")
        before = states[rows]
        _require_cleared_memory(before, pm)
        recorded = _premeasure_array(before, pm)
        _require_unit_rows(recorded)
        back = _premeasure_array(recorded, pm)
        _require_unit_rows(back)
        for r, row in enumerate(rows):
            fidelities[row] = float(abs(np.vdot(back[r], before[r])) ** 2)
    return fidelities


@dataclasses.dataclass(frozen=True)
class _Rendered:
    """Evidence that is also the first build of a check-9 pair: the result
    the judges read, and its report's (JSON, text) renderings."""

    result: object
    rendered: tuple


def _render(doc) -> tuple:
    return doc.to_json(), render_text(doc)


def _without_states(report):
    """The report without its stage snapshots: no judge reads those full
    states, and holding them for the whole sweep would raise its memory
    peak by a third."""
    return dataclasses.replace(report, snapshots=[])


def _lmz() -> _Rendered:
    command, report = run_flow(*LMZ_FLAGS)
    return _Rendered(_without_states(report), _render(from_scenario(command, report)))


def _cdr() -> _Rendered:
    command, reports = run_flow(*CDR_FLAGS)
    return _Rendered([_without_states(r) for r in reports],
                     _render(from_cdr_suite(command, reports)))


def _ghz_analysis() -> _Rendered:
    analysis = parity.analyze(parity.ghz_record_system())
    return _Rendered(analysis, _render(from_parity(GHZ_COMMAND, analysis, GHZ_CONFIG)))


def _reruns() -> list:
    """(command, (JSON, text)) of the second build of each check-9 pair, in
    the order lmz, cdr, GHZ analysis, from the first builds' flags."""
    docs = (
        lambda: build_run_document(*LMZ_FLAGS),
        lambda: build_run_document(*CDR_FLAGS),
        lambda: build_check_document(
            GHZ_COMMAND, parity.ghz_record_system(), GHZ_CONFIG),
    )
    return [(doc.command, _render(doc)) for doc in (build() for build in docs)]


# The sampled flows serve every check that reads them: their expectations,
# restoration and disturbed diagnostic equal those of the 0-shot flows.
_EVIDENCE = {
    "lmz": _lmz,
    "cdr": _cdr,
    "monomials": _monomials,
    "ghz_analysis": _ghz_analysis,
    "subsystems": _subsystems,
    "round_trips": _round_trips,
    "reruns": _reruns,
}


def _exact_products(lmz, cdr) -> tuple:
    # Not read from scenarios.CONSTRAINT_SIGNS: a wrong sign there fails here.
    expected = {1: 1, 2: -1, 3: -1, 4: -1}
    constraints = [c for c in lmz.result.constraints if c.kind == "operator"]
    constraints += [c for rep in cdr.result for c in rep.constraints]
    deviations = [abs(c.expectation - expected[c.constraint_id]) for c in constraints]
    worst = max(deviations)
    return (worst <= 1e-9 and len(deviations) >= 12,
            f"{len(deviations)} product expectations, max deviation {worst:.3e}")


def _commutation(monomials) -> tuple:
    # Entries are +/-1 or +/-i, so every product and norm is exact.
    products, pairs = monomials
    worst_comm = max(
        _bracket_norm(a, b, -1) for a, b in combinations(products, 2))
    worst_anti = max(_bracket_norm(b, a, +1) for b, a in pairs)
    return (worst_comm <= 1e-10 and worst_anti <= 1e-10,
            f"max commutator norm {worst_comm:.3e}, "
            f"max same-pair anticommutator norm {worst_anti:.3e}")


def _no_assignment(ghz_analysis) -> tuple:
    analysis = ghz_analysis.result
    solve = analysis["solve"]
    enum = analysis["enumeration"]
    ok = (not solve["satisfiable"]
          and solve["certificate"] == [1, 2, 3, 4]
          and enum["count"] == 0 and enum["tested"] == 64
          and analysis["product_identity"]["is_contradiction"]
          and analysis["consistent"])
    return ok, (
        f"{enum['count']}/{enum['tested']} assignments satisfy all four; "
        f"certificate {{{','.join(map(str, solve['certificate']))}}}")


def _three_of_four(subsystems) -> tuple:
    # Every subsystem keeps its count when all signs flip; the asymmetric
    # system has 2 solutions and its flip has none, so an enumeration that
    # misreads the right-hand sides fails here.
    *dropped, asymmetric = subsystems
    for drop, analysis in enumerate(dropped, 1):
        if not (analysis["solve"]["satisfiable"]
                and analysis["consistency"]["witness_verified"]):
            return False, f"subsystem without ({drop}) reported unsatisfiable"
    counts = [analysis["enumeration"]["count"] for analysis in dropped]
    return (all(c == 8 for c in counts)
            and asymmetric["enumeration"]["count"] == 2,
            f"solution counts without each constraint: {counts}")


def _tally_fault(tally) -> str:
    """How a sampled tally contradicts itself, or "" if it does not: its
    outcome counts must sum to its shots, the counts of the keys whose sign
    product differs from the expected one must sum to its violations, and
    each marginal's plus_count must be the count of the keys with "+" at
    its position. Written apart from the flows' own check of their tallies,
    so that one fault cannot pass both."""
    counts = tally.outcome_counts
    counted = sum(counts.values())
    if counted != tally.shots:
        return f"outcome counts sum to {counted} of {tally.shots} shots"
    wrong = sum(n for key, n in counts.items()
                if (-1) ** key.count("-") != tally.expected_product)
    if wrong != tally.violations:
        return f"outcome keys hold {wrong} violations, the tally {tally.violations}"
    for pos, marginal in enumerate(tally.marginals):
        plus = sum(n for key, n in counts.items() if key[pos] == "+")
        if plus != marginal.plus_count:
            return (f"outcome keys hold {plus} +1 readouts of {marginal.label}, "
                    f"its marginal {marginal.plus_count}")
    return ""


def _tallies_fault(report) -> str:
    """The first fault among a sampled report's tallies, or "" if it has
    tallies and none contradicts itself."""
    if not report.sampling:
        return "no sampled tally"
    return next(filter(None, map(_tally_fault, report.sampling)), "")


def _reversal_per_shot(cdr) -> tuple:
    for rep in cdr.result:
        exp = f"experiment {rep.experiment_id}"
        record = next(c for c in rep.constraints if c.kind == "record")
        if record.violations != 0 or record.shots != FULL_SHOTS:
            return False, (
                f"{exp}: {record.violations} violations in {record.shots} shots")
        fault = _tallies_fault(rep)
        if fault:
            return False, f"{exp}: {fault}"
        if not rep.passed:
            return False, f"{exp} report failed"
    return len(cdr.result) == 4, (
        f"4 experiments x {FULL_SHOTS} shots, every sampled product correct")


def _reversal_identity(round_trips, cdr) -> tuple:
    worst = min(round_trips)
    restored = cdr.result[0].restoration["fidelity"]
    return (worst >= 1.0 - 1e-12 and restored >= 1.0 - 1e-12,
            f"min round-trip fidelity {worst:.15f} over {len(round_trips)} "
            f"random cases; full restoration fidelity {restored:.15f}")


def _disturbed_records(lmz) -> tuple:
    diag = lmz.result.disturbed_diagnostic
    statuses = diag["record_statuses"]
    ok = (diag["gap_exceeds_half"]
          and abs(diag["early_expectation"] + 1.0) <= 1e-9
          and statuses.get("A2") == "disturbed"
          and statuses.get("A3") == "disturbed")
    return ok, (
        f"mixed record product {diag['early_expectation']:+.6f} -> "
        f"{diag['final_expectation']:+.6f} (gap {diag['gap']:.6f}) once "
        "later premeasurements disturb the records")


def _record_agreement(lmz) -> tuple:
    # The agreement's shots are drawn beside the record tallies, so a
    # tally that contradicts itself fails this row too.
    fault = _tallies_fault(lmz.result)
    if fault:
        return False, f"lmz: {fault}"
    cpl = lmz.result.cpl
    drop = cpl.intact_expectation - cpl.disturbed_expectation
    ok = (cpl.premise_certified
          and cpl.intact_matches == FULL_SHOTS
          and drop > MAX_TOLERANCE
          and cpl.violation_demonstrated
          and abs(cpl.operator_product_after - 1.0) <= 1e-9)
    return ok, (
        f"intact agreement {cpl.intact_matches}/{FULL_SHOTS} "
        f"(expectation {cpl.intact_expectation:+.6f}); disturbed "
        f"expectation {cpl.disturbed_expectation:+.6f}, drop {drop:.6f}")


def _determinism(lmz, cdr, ghz_analysis, reruns) -> tuple:
    # Each rerun's second build is judged against the first build that the
    # other rows read.
    for first, (label, second) in zip((lmz, cdr, ghz_analysis), reruns):
        for fmt, a, b in zip(("JSON", "text"), first.rendered, second):
            if a != b:
                return False, f"{fmt} mismatch for {label}"
    return len(reruns) == 3, "scenario and constraint reports byte-identical across reruns"


def _budget(elapsed) -> tuple:
    return elapsed < TIME_BUDGET_SECONDS, "measured wall time reported on stderr"


# (id, claim, evidence names, judge): the judge takes the named evidence in
# order. "elapsed" is the sweep's wall time up to that row.
_CHECKS = (
    (1, "exact product expectations are (+1,-1,-1,-1)", ("lmz", "cdr"), _exact_products),
    (2, "products commute pairwise; direct/record pairs anticommute", ("monomials",), _commutation),
    (3, "no joint assignment satisfies all four constraints", ("ghz_analysis",), _no_assignment),
    (4, "every three-constraint subsystem has exactly 8 solutions", ("subsystems",), _three_of_four),
    (5, "each reversal experiment certifies its constraint per shot", ("cdr",), _reversal_per_shot),
    (6, "reversal is an exact inverse and restores the register", ("round_trips", "cdr"), _reversal_identity),
    (7, "later operations break the mixed record product", ("lmz",), _disturbed_records),
    (8, "record agreement is certain intact and collapses when disturbed", ("lmz",), _record_agreement),
    (9, "identical flags reproduce byte-identical reports", ("lmz", "cdr", "ghz_analysis", "reruns"), _determinism),
    (10, f"full sweep completes within {TIME_BUDGET_SECONDS:g} s", ("elapsed",), _budget),
)


def run_all_checks() -> tuple:
    """Run every acceptance check. Returns (rows, elapsed_seconds, timings):
    the report rows, the sweep's wall time, and (label, seconds) for each
    piece of evidence built ("evidence lmz") and each judge ("check 01") in
    the order they ran. Wall times stay out of the rows."""
    started = time.monotonic()
    evidence, rows, timings = {}, [], []
    for idx, claim, names, judge in _CHECKS:
        evidence["elapsed"] = time.monotonic() - started
        for name in (n for n in names if n not in evidence):
            built = time.monotonic()
            try:
                evidence[name] = _EVIDENCE[name]()
            except Exception as exc:  # kept in place: fails only the rows that need it
                evidence[name] = exc
            timings.append((f"evidence {name}", time.monotonic() - built))
        inputs = [evidence[name] for name in names]
        judged = time.monotonic()
        try:
            failed = [x for x in inputs if isinstance(x, Exception)]
            if failed:
                raise failed[0]
            passed, detail = judge(*inputs)
        except Exception as exc:  # a failing check must not kill the sweep
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        timings.append((f"check {idx:02d}", time.monotonic() - judged))
        rows.append({
            "id": idx, "claim": claim, "passed": bool(passed), "detail": detail})
    return rows, evidence["elapsed"], timings
