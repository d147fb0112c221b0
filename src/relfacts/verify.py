"""Programmatic acceptance checks.

Each check certifies one physics or toolchain claim end to end and reports
a pass/fail row. The evidence a check reads (a flow's report, a parity
analysis, the relations of the single-qubit factors) is built once per
sweep, on first use, and its judge returns (passed, detail) from that
evidence alone. The lmz flow, the reversal suite and the GHZ analysis are
each built through the same path as their CLI report
(report.build_run_document and build_check_document, from the flags below)
and rendered in both formats; check 9 builds each of those reports once
more from the same flags, in the reverse order, and compares the SHA-256
digests of the bytes.
Each piece of evidence is dropped once the last row that reads it is
judged, so the sweep's memory peak is that of its largest single build,
not of all it has built. The digests of each first build are evidence of
their own, so its result goes before check 9's reruns. The rows are
deterministic; the final row checks the whole sweep against a 5-second
budget. The CLI prints the sweep's wall time, then the time of each piece
of evidence and of each judge, to stderr.
"""
from __future__ import annotations

import dataclasses
import time
from itertools import combinations, product, zip_longest

import numpy as np

from . import parity
from .observers import Premeasurement, _premeasure_array, _require_cleared_memory
from .pauli import PauliString, product_of
from .rng import STREAM_SCRIPT, child_generator
from .report import build_check_document, build_run_document, render_text
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
GHZ_FLAGS = ("ghz", None)


def _relation_table() -> dict:
    """(s, ||fg||) for each ordered pair (f, g) of single-qubit factors,
    read from their explicit 2x2 matrices, where gf = s fg. Raises
    ValueError for a pair that neither commutes nor anticommutes."""
    dense = {f: PauliString.from_label(f).dense_matrix() for f in "IXYZ"}
    table = {}
    for (f, a), (g, b) in product(dense.items(), repeat=2):
        fg, gf = a @ b, b @ a
        s = next((sign for sign in (1, -1) if np.array_equal(gf, sign * fg)), None)
        if s is None:
            raise ValueError(f"factors {f}, {g} neither commute nor anticommute")
        table[f, g] = (s, float(np.linalg.norm(fg)))
    return table


def _bracket_norm(table: dict, p: PauliString, q: PauliString, sign: int) -> float:
    """Frobenius norm of pq + sign * qp, qubit by qubit. With gf = s fg on
    each qubit, qp = (prod s) pq, and ||pq|| is the product of the factors'
    ||fg|| (the signs of p and q have modulus 1), so the norm is
    |1 + sign prod s| ||pq||."""
    s, norm = 1, 1.0
    for f, g in zip(p.factors, q.factors, strict=True):
        s_fg, norm_fg = table[f, g]
        s *= s_fg
        norm *= norm_fg
    return abs(1 + sign * s) * norm


def _relations() -> tuple:
    """(relation table, products, pairs): the four constraint products and
    each (lifted direct, record readout) pair, whose brackets check 2 reads
    off the table of the explicit single-qubit matrices, so independent of
    pauli.commutes and its phases."""
    bhats = lifted_direct_observables(alice_premeasurements())
    ahats = record_readout_observables()
    products = [product_of(spec.observables) for spec in constraint_table(bhats, ahats)]
    return _relation_table(), products, list(zip(bhats, ahats))


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
    the judges read, and the SHA-256 digests of its report's (JSON, text)
    bytes."""

    result: object
    rendered: tuple


def _render(doc) -> tuple:
    """(JSON, text) SHA-256 digests of the bytes the CLI prints for `doc`.
    Each rendering is freed once hashed, so check 9 holds 64 bytes per
    report instead of its renderings."""
    # Imported here: hashlib loads OpenSSL, about 5 ms that every other
    # command would otherwise pay at start-up.
    import hashlib
    return (hashlib.sha256(doc.to_json().encode()).digest(),
            hashlib.sha256(render_text(doc).encode()).digest())


def _without_states(report):
    """The report without its stage snapshots: no judge reads those full
    states, so they are dropped before the report is rendered and kept."""
    return dataclasses.replace(report, snapshots=[])


def _lmz() -> _Rendered:
    report, doc = build_run_document(*LMZ_FLAGS)
    report = _without_states(report)
    return _Rendered(report, _render(doc))


def _cdr() -> _Rendered:
    reports, doc = build_run_document(*CDR_FLAGS)
    reports = [_without_states(r) for r in reports]
    return _Rendered(reports, _render(doc))


def _ghz_analysis() -> _Rendered:
    analysis, doc = build_check_document(*GHZ_FLAGS)
    return _Rendered(analysis, _render(doc))


def _reruns() -> list:
    """(command, (JSON, text) digests) of the second build of each check-9
    pair, in the order lmz, cdr, GHZ analysis, from the first builds'
    flags. They are built in the reverse order, so the flows read the
    protocol plan that the first builds derived in another order than
    theirs. Each build keeps only its document, so a flow's stage states
    are freed before rendering, and only the digests outlive it."""
    builds = ((build_check_document, GHZ_FLAGS), (build_run_document, CDR_FLAGS),
              (build_run_document, LMZ_FLAGS))
    return [(doc.command, _render(doc))
            for doc in (build(*flags)[1] for build, flags in builds)][::-1]


# The sampled flows serve every check that reads them: their expectations,
# restoration and disturbed diagnostic equal those of the 0-shot flows.
_EVIDENCE = {
    "lmz": _lmz,
    "cdr": _cdr,
    "relations": _relations,
    "ghz_analysis": _ghz_analysis,
    "subsystems": _subsystems,
    "round_trips": _round_trips,
    "reruns": _reruns,
}

# Row 9 reads only the digests of each first build, so they are evidence of
# their own, made with the build: its _Rendered without the result. The
# result is then dropped after its last other reader, before the reruns.
_DIGESTS = {"lmz": "lmz_digests", "cdr": "cdr_digests", "ghz_analysis": "ghz_digests"}


def _digests(first):
    """The digests piece of a first build: the build without its result, or
    the exception the build raised."""
    return first if isinstance(first, Exception) else dataclasses.replace(first, result=None)


def _exact_products(lmz, cdr) -> tuple:
    # Not read from scenarios.CONSTRAINT_SIGNS: a wrong sign there fails here.
    expected = {1: 1, 2: -1, 3: -1, 4: -1}
    constraints = [c for c in lmz.result.constraints if c.kind == "operator"]
    constraints += [c for rep in cdr.result for c in rep.constraints]
    deviations = [abs(c.expectation - expected[c.constraint_id]) for c in constraints]
    worst = max(deviations)
    return (worst <= 1e-9 and len(deviations) >= 12,
            f"{len(deviations)} product expectations, max deviation {worst:.3e}")


def _commutation(relations) -> tuple:
    # Each s is read exactly off entries 0, +/-1 and +/-i, so a bracket
    # that vanishes reads exactly 0.
    table, products, pairs = relations
    worst_comm = max(
        _bracket_norm(table, a, b, -1) for a, b in combinations(products, 2))
    worst_anti = max(_bracket_norm(table, b, a, +1) for b, a in pairs)
    return (worst_comm <= 1e-10 and worst_anti <= 1e-10,
            f"max commutator norm {worst_comm:.3e}, "
            f"max same-pair anticommutator norm {worst_anti:.3e}")


def _no_assignment(lmz, cdr, ghz_analysis) -> tuple:
    # The analysis must be of the products both flows measured, not of a
    # table of its own: the two halves of the verdict meet here. A flow's
    # operator certifications, in id order, read as parity constraints:
    # their labels, with the Born value rounded to +/-1 as rhs.
    analysis = ghz_analysis.result
    analysed = analysis["system"]["constraints"]
    for flow, certified in (("lmz", lmz.result.constraints),
                            ("cdr", [c for rep in cdr.result for c in rep.constraints])):
        measured = [str(parity.ParityConstraint(c.labels, round(c.expectation)))
                    for c in sorted(certified, key=lambda c: c.constraint_id)
                    if c.kind == "operator"]
        for cid, (m, a) in enumerate(zip_longest(measured, analysed, fillvalue="nothing"), 1):
            if m != a:
                return False, f"constraint {cid}: {flow} measured {m}, analysed {a}"
    solve, enum = analysis["solve"], analysis["enumeration"]
    ok = (not solve.satisfiable
          and solve.certificate == (1, 2, 3, 4)
          and enum.count == 0 and enum.tested == 64
          and analysis["product_identity"].is_contradiction
          and analysis["consistent"])
    return ok, (
        f"{enum.count}/{enum.tested} assignments satisfy all four; "
        f"certificate {{{','.join(map(str, solve.certificate))}}}")


def _three_of_four(subsystems) -> tuple:
    # Every subsystem keeps its count when all signs flip; the asymmetric
    # system has 2 solutions and its flip has none, so an enumeration that
    # misreads the right-hand sides fails here.
    *dropped, asymmetric = subsystems
    for drop, analysis in enumerate(dropped, 1):
        if not (analysis["solve"].satisfiable
                and analysis["consistency"]["witness_verified"]):
            return False, f"subsystem without ({drop}) reported unsatisfiable"
    counts = [analysis["enumeration"].count for analysis in dropped]
    return (all(c == 8 for c in counts)
            and asymmetric["enumeration"].count == 2,
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
        exp = f"experiment {rep.config.experiment_id}"
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
    restored = cdr.result[0].restoration.fidelity
    return (worst >= 1.0 - 1e-12 and restored >= 1.0 - 1e-12,
            f"min round-trip fidelity {worst:.15f} over {len(round_trips)} "
            f"random cases; full restoration fidelity {restored:.15f}")


def _disturbed_records(lmz) -> tuple:
    diag = lmz.result.disturbed_diagnostic
    ok = (diag.gap_exceeds_half
          and abs(diag.early_expectation + 1.0) <= 1e-9
          and diag.record_statuses == {"A2": "disturbed", "A3": "disturbed"})
    return ok, (
        f"mixed record product {diag.early_expectation:+.6f} -> "
        f"{diag.final_expectation:+.6f} (gap {diag.gap:.6f}) once "
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
    (2, "products commute pairwise; direct/record pairs anticommute", ("relations",), _commutation),
    (3, "no joint assignment satisfies all four constraints", ("lmz", "cdr", "ghz_analysis"), _no_assignment),
    (4, "every three-constraint subsystem has exactly 8 solutions", ("subsystems",), _three_of_four),
    (5, "each reversal experiment certifies its constraint per shot", ("cdr",), _reversal_per_shot),
    (6, "reversal is an exact inverse and restores the register", ("round_trips", "cdr"), _reversal_identity),
    (7, "later operations break the mixed record product", ("lmz",), _disturbed_records),
    (8, "record agreement is certain intact and collapses when disturbed", ("lmz",), _record_agreement),
    (9, "identical flags reproduce byte-identical reports",
     ("lmz_digests", "cdr_digests", "ghz_digests", "reruns"), _determinism),
    (10, f"full sweep completes within {TIME_BUDGET_SECONDS:g} s", ("elapsed",), _budget),
)


def _last_readers(checks) -> dict:
    """The id of the last row of `checks` that reads each piece of built
    evidence ("elapsed" is not built)."""
    return {name: idx for idx, _, names, _ in checks for name in names
            if name != "elapsed"}


# run_all_checks drops each piece of evidence once this row is judged.
_LAST_READER = _last_readers(_CHECKS)


def run_all_checks() -> tuple:
    """Run every acceptance check. Returns (rows, elapsed_seconds, timings):
    the report rows, the sweep's wall time, and (label, seconds) for each
    piece of evidence built ("evidence lmz") and each judge ("check 01") in
    the order they ran. Wall times stay out of the rows. A first build
    named in _DIGESTS also makes its digests, under their own name. Each
    piece of evidence, or the exception its build raised, is dropped right
    after its last reader (_LAST_READER) is judged."""
    started = time.monotonic()
    evidence, rows, timings = {}, [], []
    for idx, claim, names, judge in _CHECKS:
        evidence["elapsed"] = time.monotonic() - started
        for name in (n for n in names if n not in evidence):
            built = time.monotonic()
            try:
                evidence[name] = _EVIDENCE[name]()
            except Exception as exc:  # kept in place: fails only the rows that need it
                # Kept without its traceback, whose frames would keep the
                # builder's locals (and through them, perhaps the exception
                # itself) alive.
                evidence[name] = exc.with_traceback(None)
            timings.append((f"evidence {name}", time.monotonic() - built))
            if name in _DIGESTS:
                evidence[_DIGESTS[name]] = _digests(evidence[name])
        judged = time.monotonic()
        passed, detail = _judge(judge, [evidence[name] for name in names])
        timings.append((f"check {idx:02d}", time.monotonic() - judged))
        rows.append({
            "id": idx, "claim": claim, "passed": bool(passed), "detail": detail})
        for name in names:
            if _LAST_READER.get(name) == idx:
                del evidence[name]
    return rows, evidence["elapsed"], timings


def _judge(judge, inputs: list) -> tuple:
    """(passed, detail) of `judge` on `inputs`. Evidence whose build raised
    fails the row with that exception, as does a judge that raises; the
    evidence exception is not raised again, so its traceback does not grow
    a frame that holds this row's inputs."""
    failed = next((x for x in inputs if isinstance(x, Exception)), None)
    if failed is not None:
        return _raised(failed)
    try:
        return judge(*inputs)
    except Exception as exc:  # a failing check must not kill the sweep
        return _raised(exc)


def _raised(exc: Exception) -> tuple:
    return False, f"raised {type(exc).__name__}: {exc}"
