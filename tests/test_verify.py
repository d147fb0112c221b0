"""The acceptance sweep: check 2's monomial kron against the dense
read-back and its monomial arithmetic against dense matrix products, every
judge on hand-built evidence (each conjunct of a
pass condition made false on its own), and the runner that builds each
piece of evidence once, each report of check 9 twice, and drops each piece
of evidence after its last reader."""
import dataclasses
import gc
import hashlib
import json
import tracemalloc
import weakref
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from relfacts import parity, report, verify
from relfacts.cli import main
from relfacts.observers import (
    Premeasurement, _premeasure_array, _require_cleared_memory, premeasure, reverse)
from relfacts.pauli import PauliString, commutes
from relfacts.rng import STREAM_SCRIPT, child_generator
from relfacts.scenarios import DisturbedDiagnostic, FullRestoration
from relfacts.statevector import StateVector, fidelity
from relfacts.verify import (
    FULL_SHOTS, _bracket_norm, _kron_monomial, _monomial, _monomial_product,
    _single_monomials)

NUM_QUBITS = 9


def _random_pairs(seed, count):
    """count commuting and count anticommuting random 9-qubit string pairs."""
    rng = np.random.default_rng(seed)
    pairs = {True: [], False: []}
    while min(len(v) for v in pairs.values()) < count:
        p, q = (PauliString(NUM_QUBITS, tuple(rng.choice(list("IXYZ"), NUM_QUBITS)),
                            int(rng.choice([1, -1]))) for _ in range(2))
        bucket = pairs[commutes(p, q)]
        if len(bucket) < count:
            bucket.append((p, q))
    return pairs[True] + pairs[False]


@pytest.mark.parametrize("p, q", _random_pairs(seed=5, count=2))
def test_norms_match_dense_products(p, q):
    a, b = p.dense_matrix(), q.dense_matrix()
    ma, mb = _monomial(a), _monomial(b)
    commutator = _bracket_norm(ma, mb, -1)
    anticommutator = _bracket_norm(ma, mb, +1)
    assert abs(commutator - np.linalg.norm(a @ b - b @ a)) <= 1e-12
    assert abs(anticommutator - np.linalg.norm(a @ b + b @ a)) <= 1e-12
    full = 2 * np.sqrt(1 << NUM_QUBITS)
    expected = (0.0, full) if commutes(p, q) else (full, 0.0)
    assert (commutator, anticommutator) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_generic_monomials_match_dense(seed):
    # Random permutations with +/-1, +/-i entries: unlike a Pauli pair, a @ b
    # and b @ a here mostly put their nonzeros in different rows.
    rng = np.random.default_rng(seed)
    a, b = (np.zeros((16, 16), dtype=complex) for _ in range(2))
    for m in (a, b):
        m[rng.permutation(16), np.arange(16)] = 1j ** rng.integers(0, 4, 16)
    ma, mb = _monomial(a), _monomial(b)
    rows, values = _monomial_product(ma, mb)
    product = np.zeros_like(a)
    product[rows, np.arange(16)] = values
    assert np.array_equal(product, a @ b)
    for sign in (-1, +1):
        dense = np.linalg.norm(a @ b + sign * (b @ a))
        assert abs(_bracket_norm(ma, mb, sign) - dense) <= 1e-12


def _random_strings(seed):
    """Two random strings of each size from 1 to 10 qubits, one per sign."""
    rng = np.random.default_rng(seed)
    return [PauliString(n, tuple(rng.choice(list("IXYZ"), n)), sign)
            for n in range(1, 11) for sign in (1, -1)]


ALL_TWO_QUBIT = [PauliString.from_label(a + b) for a in "IXYZ" for b in "IXYZ"]


@pytest.mark.parametrize("p", (
    [pytest.param(p, id=f"random{p}") for p in _random_strings(seed=9)]
    + [pytest.param(p, id=f"all{p}") for p in ALL_TWO_QUBIT]))
def test_kron_monomial_equals_the_dense_readback(p):
    rows, values = _kron_monomial(p, _single_monomials())
    dense_rows, dense_values = _monomial(p.dense_matrix())
    assert np.array_equal(rows, dense_rows)
    assert np.array_equal(values, dense_values)


def test_sweep_builds_dense_matrices_of_single_qubits_only(monkeypatch):
    sizes = []
    original = PauliString.dense_matrix

    def recorded(self):
        sizes.append(self.num_qubits)
        return original(self)

    monkeypatch.setattr(PauliString, "dense_matrix", recorded)
    rows, _, _ = verify.run_all_checks()
    assert all(row["passed"] for row in rows)
    assert sizes == [1, 1, 1, 1]


def test_sweep_peak_memory_stays_below_350_kb():
    # One dense 512x512 complex matrix alone takes 4 MB. Holding every
    # piece of evidence and every rendering to the end of the sweep peaks
    # at about 0.44 MB on CPython 3.11; dropping each after its last reader
    # and keeping digests for check 9 at about 0.24 MB.
    verify.run_all_checks()    # fills the memoised tables first
    tracemalloc.start()
    try:
        rows, _, _ = verify.run_all_checks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(row["passed"] for row in rows)
    assert peak < 3.5e5


@pytest.mark.parametrize("column", [
    np.array([1, 1j, 0, 0]),   # two nonzeros
    np.zeros(4),               # no nonzero
])
def test_non_monomial_matrix_raises(column):
    matrix = np.eye(4, dtype=complex)
    matrix[:, 2] = column
    with pytest.raises(ValueError, match="not monomial"):
        _monomial(matrix)


def passes(judge, *evidence):
    passed, detail = judge(*evidence)
    assert isinstance(detail, str)
    return passed


def constraint(cid, kind, expectation, **fields):
    return SimpleNamespace(
        constraint_id=cid, kind=kind, expectation=expectation, **fields)


SIGNS = {1: 1, 2: -1, 3: -1, 4: -1}
LABELS = {1: ("B1", "B2", "B3"), 2: ("B1", "A2", "A3"),
          3: ("A1", "B2", "A3"), 4: ("A1", "A2", "B3")}


def built(result, rendered=("json", "text")):
    """Hand-built evidence that is also the first build of a check-9 pair."""
    return verify._Rendered(result, rendered)


def exact_flows():
    lmz = SimpleNamespace(constraints=[
        constraint(cid, kind, sign, labels=LABELS[cid]) for kind in ("operator", "record")
        for cid, sign in SIGNS.items()])
    cdr = [SimpleNamespace(constraints=[
        constraint(cid, kind, SIGNS[cid], labels=LABELS[cid])
        for kind in ("operator", "record")])
        for cid in SIGNS]
    return lmz, cdr


def test_exact_products_pass_on_twelve_exact_expectations():
    assert verify._exact_products(*map(built, exact_flows())) == (
        True, "12 product expectations, max deviation 0.000e+00")


def test_exact_products_need_twelve_expectations():
    lmz, cdr = exact_flows()
    cdr[3].constraints.pop()
    assert verify._exact_products(built(lmz), built(cdr)) == (
        False, "11 product expectations, max deviation 0.000e+00")


def test_exact_products_fail_beyond_1e_9():
    lmz, cdr = exact_flows()
    cdr[2].constraints[1].expectation += 2e-9
    assert not passes(verify._exact_products, built(lmz), built(cdr))


def test_exact_products_read_the_lmz_operator_certifications():
    # The lmz flow's record certifications are exact too, so reading them
    # in place of its operator ones would hide this deviation.
    lmz, cdr = exact_flows()
    lmz.constraints[1].expectation += 2e-9
    assert lmz.constraints[1].kind == "operator"
    assert not passes(verify._exact_products, built(lmz), built(cdr))


def pauli_monomial(label):
    return _monomial(PauliString.from_label(label).dense_matrix())


@pytest.mark.parametrize("products, pairs, expected", [
    (("ZZ", "XX", "YY"), (("XI", "ZI"), ("IY", "IZ")), True),
    (("ZZ", "XI"), (("XI", "ZI"),), False),    # two products anticommute
    (("ZZ", "XX"), (("XI", "XI"),), False),    # a pair commutes
])
def test_commutation_judges_both_norms(products, pairs, expected):
    evidence = ([pauli_monomial(p) for p in products],
                [tuple(map(pauli_monomial, pair)) for pair in pairs])
    assert passes(verify._commutation, evidence) is expected


GHZ_ANALYSIS = {
    "system": {"constraints": [
        "B1*B2*B3 = +1", "A2*A3*B1 = -1", "A1*A3*B2 = -1", "A1*A2*B3 = -1"]},
    "solve": parity.SolveResult(
        satisfiable=False, witness=None, certificate=(1, 2, 3, 4), rank=3,
        num_solutions=0),
    "enumeration": parity.EnumerationResult(count=0, tested=64),
    "product_identity": parity.ProductIdentity(
        subset=(1, 2, 3, 4), residual_variables=(), rhs=-1, is_contradiction=True),
    "consistent": True,
}


def altered(base, path, value):
    """`base` with the entry at `path` set to `value`: a dict key, or a
    field of a result object, replaced in a copy."""
    key, *rest = path
    old = getattr(base, key) if dataclasses.is_dataclass(base) else base[key]
    new = altered(old, rest, value) if rest else value
    if dataclasses.is_dataclass(base):
        return dataclasses.replace(base, **{key: new})
    return {**base, key: new}


def no_assignment(analysis, flows=None):
    """Check 3's judge on exact flows (or `flows`) and `analysis`."""
    lmz, cdr = flows or exact_flows()
    return verify._no_assignment(built(lmz), built(cdr), built(analysis))


def test_no_assignment_passes_on_the_ghz_analysis():
    assert no_assignment(GHZ_ANALYSIS) == (
        True, "0/64 assignments satisfy all four; certificate {1,2,3,4}")


@pytest.mark.parametrize("path, value", [
    (("solve", "satisfiable"), True),
    (("solve", "certificate"), (1, 2, 3)),
    (("enumeration", "count"), 1),
    (("enumeration", "tested"), 32),
    (("product_identity", "is_contradiction"), False),
    (("consistent",), False),
])
def test_no_assignment_fails_on_each_conjunct(path, value):
    assert not passes(no_assignment, altered(GHZ_ANALYSIS, path, value))


@pytest.mark.parametrize("index, printed, detail", [
    (2, ["A1*A3*B2 = +1"],
     "constraint 3: lmz measured A1*A3*B2 = -1, analysed A1*A3*B2 = +1"),
    (0, ["A2*B1*B3 = +1", "A3*B1*B2 = -1"],         # B2 and A2 swapped
     "constraint 1: lmz measured B1*B2*B3 = +1, analysed A2*B1*B3 = +1"),
])
def test_no_assignment_fails_on_an_analysis_the_flows_did_not_measure(
        index, printed, detail):
    analysed = list(GHZ_ANALYSIS["system"]["constraints"])
    analysed[index:index + len(printed)] = printed
    assert no_assignment(altered(GHZ_ANALYSIS, ("system", "constraints"), analysed)) == (
        False, detail)


def test_no_assignment_reads_the_born_values_of_each_flow():
    lmz, cdr = exact_flows()
    cdr[1].constraints[0].expectation = 0.999999
    assert no_assignment(GHZ_ANALYSIS, (lmz, cdr)) == (
        False, "constraint 2: cdr measured A2*A3*B1 = +1, analysed A2*A3*B1 = -1")


def test_no_assignment_reads_the_operator_certifications_only():
    # A record product is sampled on a later state and may read 0 there.
    lmz, cdr = exact_flows()
    for c in lmz.constraints[4:] + [rep.constraints[1] for rep in cdr]:
        c.expectation = 0.0
    assert passes(no_assignment, GHZ_ANALYSIS, (lmz, cdr))


def test_no_assignment_needs_every_certification():
    lmz, cdr = exact_flows()
    del lmz.constraints[3]    # the operator certification of constraint 4
    assert no_assignment(GHZ_ANALYSIS, (lmz, cdr)) == (
        False, "constraint 4: lmz measured nothing, analysed A1*A2*B3 = -1")


SUBSYSTEM = {
    "solve": parity.SolveResult(
        satisfiable=True, witness=None, certificate=None, rank=3, num_solutions=8),
    "consistency": {"witness_verified": True},
    "enumeration": parity.EnumerationResult(count=8, tested=64),
}


def subsystems(index=None, path=(), value=None):
    """Four eight-solution subsystems, then the two-solution asymmetric
    system; entry `index` altered at `path`."""
    analyses = [SUBSYSTEM] * 4 + [
        {"enumeration": parity.EnumerationResult(count=2, tested=8)}]
    if index is not None:
        analyses[index] = altered(analyses[index], path, value)
    return analyses


def test_three_of_four_passes_on_four_eight_solution_subsystems():
    assert verify._three_of_four(subsystems()) == (
        True, "solution counts without each constraint: [8, 8, 8, 8]")


@pytest.mark.parametrize("index, path, value, detail", [
    (1, ("solve", "satisfiable"), False, "subsystem without (2) reported unsatisfiable"),
    (3, ("consistency", "witness_verified"), False,
     "subsystem without (4) reported unsatisfiable"),
    (0, ("enumeration", "count"), 7, "solution counts without each constraint: [7, 8, 8, 8]"),
    (4, ("enumeration", "count"), 0, "solution counts without each constraint: [8, 8, 8, 8]"),
])
def test_three_of_four_fails_on_each_conjunct(index, path, value, detail):
    assert verify._three_of_four(subsystems(index, path, value)) == (False, detail)


def clean_tally(sign):
    """A three-record tally of FULL_SHOTS shots spread over the four keys
    whose sign product is `sign`; each record reads +1 in half of them."""
    keys = [key for key in map("".join, product("+-", repeat=3))
            if (-1) ** key.count("-") == sign]
    return SimpleNamespace(
        expected_product=sign, shots=FULL_SHOTS, violations=0,
        outcome_counts=dict.fromkeys(keys, FULL_SHOTS // 4),
        marginals=[SimpleNamespace(label=f"R{pos}", plus_count=FULL_SHOTS // 2)
                   for pos in (1, 2, 3)])


def cdr_suite():
    """Four clean reversal reports; experiment 1 restores the register."""
    return [SimpleNamespace(
        config=SimpleNamespace(experiment_id=cid), passed=True,
        restoration=FullRestoration(1.0, restored=True) if cid == 1 else None,
        constraints=[
            constraint(cid, "operator", SIGNS[cid]),
            constraint(cid, "record", SIGNS[cid], expected=SIGNS[cid],
                       violations=0, shots=FULL_SHOTS)],
        sampling=[clean_tally(SIGNS[cid])])
        for cid in SIGNS]


def test_reversal_per_shot_passes_on_four_clean_experiments():
    assert verify._reversal_per_shot(built(cdr_suite())) == (
        True, f"4 experiments x {FULL_SHOTS} shots, every sampled product correct")


@pytest.mark.parametrize("experiment, field, value, detail", [
    (2, "violations", 1, f"experiment 2: 1 violations in {FULL_SHOTS} shots"),
    (3, "shots", FULL_SHOTS - 1, f"experiment 3: 0 violations in {FULL_SHOTS - 1} shots"),
    (4, "passed", False, "experiment 4 report failed"),
])
def test_reversal_per_shot_fails_on_each_conjunct(experiment, field, value, detail):
    cdr = cdr_suite()
    report = cdr[experiment - 1]
    setattr(report if field == "passed" else report.constraints[1], field, value)
    assert verify._reversal_per_shot(built(cdr)) == (False, detail)


def drop_one_count(report):
    counts = report.sampling[0].outcome_counts
    counts[next(iter(counts))] -= 1


def flip_keys(report):
    tally = report.sampling[0]
    flip = str.maketrans("+-", "-+")
    tally.outcome_counts = {
        key.translate(flip): n for key, n in tally.outcome_counts.items()}


def miscount_violations(report):
    report.sampling[0].violations = 1


def miscount_marginal(report):
    report.sampling[0].marginals[1].plus_count -= 1


def drop_tallies(report):
    report.sampling = []


@pytest.mark.parametrize("experiment, alter, detail", [
    (3, drop_one_count,
     f"experiment 3: outcome counts sum to {FULL_SHOTS - 1} of {FULL_SHOTS} shots"),
    (4, flip_keys, f"experiment 4: outcome keys hold {FULL_SHOTS} violations, the tally 0"),
    (1, flip_keys, f"experiment 1: outcome keys hold {FULL_SHOTS} violations, the tally 0"),
    (2, miscount_violations, "experiment 2: outcome keys hold 0 violations, the tally 1"),
    (3, drop_tallies, "experiment 3: no sampled tally"),
    (4, miscount_marginal,
     f"experiment 4: outcome keys hold {FULL_SHOTS // 2} +1 readouts of R2, "
     f"its marginal {FULL_SHOTS // 2 - 1}"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_reversal_per_shot_checks_the_tallies_it_relies_on(experiment, alter, detail):
    cdr = cdr_suite()
    alter(cdr[experiment - 1])
    assert verify._reversal_per_shot(built(cdr)) == (False, detail)


def test_reversal_per_shot_needs_all_four_experiments():
    assert not passes(verify._reversal_per_shot, built(cdr_suite()[:3]))


@pytest.mark.parametrize("worst, restored, expected", [
    (1.0, 1.0, True),
    (1.0 - 1e-12, 1.0 - 1e-12, True),    # the bound itself passes
    (1.0 - 1e-11, 1.0, False),
    (1.0, 1.0 - 1e-11, False),
])
def test_reversal_identity_judges_round_trips_and_restoration(worst, restored, expected):
    cdr = cdr_suite()
    cdr[0].restoration = dataclasses.replace(cdr[0].restoration, fidelity=restored)
    round_trips = [1.0] * 99 + [worst]
    passed, detail = verify._reversal_identity(round_trips, built(cdr))
    assert passed is expected
    assert "over 100 random cases" in detail


def round_trip_reference() -> list:
    """Check 6's round trips case by case through the public StateVector,
    premeasure, reverse and fidelity, from the same draws as the sweep."""
    rng = child_generator(2024, STREAM_SCRIPT, 6)
    fidelities = []
    for _ in range(verify.ROUND_TRIPS):
        amps = np.zeros(16, dtype=complex)
        half = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps[:8] = half / np.linalg.norm(half)
        state = StateVector(4, amps)
        factor = "XYZ"[rng.integers(0, 3)]
        qubit = int(rng.integers(0, 3))
        pm = Premeasurement(
            PauliString.single(4, qubit, factor), memory=3, owner="friend")
        fidelities.append(fidelity(reverse(premeasure(state, pm), pm), state))
    return fidelities


def test_round_trips_equal_the_case_by_case_reference():
    assert verify._round_trips() == round_trip_reference()


def test_round_trips_check_the_memory_of_every_row(monkeypatch):
    rows = []

    def recorded(stack, pm, *args):
        rows.extend((pm.observable.label(), pm.memory) for _ in stack)
        return _require_cleared_memory(stack, pm, *args)

    monkeypatch.setattr(verify, "_require_cleared_memory", recorded)
    verify._round_trips()
    assert len(rows) == verify.ROUND_TRIPS
    assert len(set(rows)) <= 9 and {memory for _, memory in rows} == {3}


@pytest.mark.parametrize("application", [1, 2])
def test_round_trips_check_the_norm_after_each_application(application, monkeypatch):
    # A 1e-9 stretch leaves every fidelity above 1 - 1e-12; only the norm
    # check sees it.
    calls = []

    def stretched(stack, pm):
        calls.append(pm)
        out = _premeasure_array(stack, pm)
        return out * (1 + 1e-9) if len(calls) == application else out

    monkeypatch.setattr(verify, "_premeasure_array", stretched)
    with pytest.raises(ValueError, match="row 0 is not normalized"):
        verify._round_trips()
    assert len(calls) == application


def test_unit_rows_name_the_first_row_off_by_more_than_phys_tol():
    stack = np.eye(4, 4, dtype=complex)
    verify._require_unit_rows(stack)
    verify._require_unit_rows(np.zeros((0, 4), dtype=complex))
    stack[1] *= 1 + 5e-11
    stack[2] *= 1 - 5e-10
    stack[3] *= 1 + 5e-10
    with pytest.raises(ValueError, match="row 2 is not normalized"):
        verify._require_unit_rows(stack)


DIAGNOSTIC = DisturbedDiagnostic(
    records=("B1", "A2", "A3"), early_stage="bob-1",
    early_expectation=-1.0, final_expectation=0.0, gap=1.0,
    gap_exceeds_half=True,
    record_statuses={"A2": "disturbed", "A3": "disturbed"})


@pytest.mark.parametrize("path, value, expected", [
    ((), None, True),
    (("gap_exceeds_half",), False, False),
    (("early_expectation",), -0.99, False),
    (("record_statuses", "A2"), "current", False),
    (("record_statuses", "A3"), "erased", False),
])
def test_disturbed_records_fail_on_each_conjunct(path, value, expected):
    diag = altered(DIAGNOSTIC, path, value) if path else DIAGNOSTIC
    lmz = SimpleNamespace(disturbed_diagnostic=diag)
    assert passes(verify._disturbed_records, built(lmz)) is expected


CPL = {
    "premise_certified": True, "intact_matches": FULL_SHOTS,
    "intact_expectation": 1.0, "disturbed_expectation": 0.0,
    "violation_demonstrated": True, "operator_product_after": 1.0,
}


def lmz_with_cpl(**cpl):
    """An lmz report with one clean tally per constraint and the given cpl."""
    return SimpleNamespace(
        cpl=SimpleNamespace(**cpl),
        sampling=[clean_tally(sign) for sign in SIGNS.values()])


@pytest.mark.parametrize("field, value, expected", [
    (None, None, True),
    ("premise_certified", False, False),
    ("intact_matches", FULL_SHOTS - 1, False),
    ("disturbed_expectation", 0.6, False),
    ("disturbed_expectation", 0.5, False),    # the drop must exceed 0.5
    ("violation_demonstrated", False, False),
    ("operator_product_after", -1.0, False),
])
def test_record_agreement_fails_on_each_conjunct(field, value, expected):
    cpl = dict(CPL) if field is None else {**CPL, field: value}
    assert passes(verify._record_agreement, built(lmz_with_cpl(**cpl))) is expected


@pytest.mark.parametrize("alter, detail", [
    (drop_one_count, f"lmz: outcome counts sum to {FULL_SHOTS - 1} of {FULL_SHOTS} shots"),
    (flip_keys, f"lmz: outcome keys hold {FULL_SHOTS} violations, the tally 0"),
    (miscount_marginal,
     f"lmz: outcome keys hold {FULL_SHOTS // 2} +1 readouts of R2, "
     f"its marginal {FULL_SHOTS // 2 - 1}"),
    (drop_tallies, "lmz: no sampled tally"),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_record_agreement_checks_the_lmz_tallies(alter, detail):
    lmz = lmz_with_cpl(**CPL)
    alter(lmz)
    assert verify._record_agreement(built(lmz)) == (False, detail)


@pytest.mark.parametrize("second, detail", [
    (("json", "text"), "scenario and constraint reports byte-identical across reruns"),
    (("JSON", "text"), "JSON mismatch for lmz seed 7"),
    (("json", "TEXT"), "text mismatch for lmz seed 7"),
])
def test_determinism_names_the_first_mismatch(second, detail):
    firsts = [built(None) for _ in range(3)]
    reruns = [("lmz seed 7", second), ("cdr", ("json", "text")), ("ghz", ("json", "text"))]
    assert verify._determinism(*firsts, reruns) == (second == ("json", "text"), detail)


@pytest.mark.parametrize("pair", range(3))
def test_determinism_compares_each_first_build_with_its_rerun(pair):
    firsts = [built(None) for _ in range(3)]
    firsts[pair] = built(None, ("json", "other text"))
    reruns = [(label, ("json", "text")) for label in ("lmz", "cdr", "ghz")]
    assert verify._determinism(*firsts, reruns) == (
        False, f"text mismatch for {reruns[pair][0]}")


def test_determinism_needs_all_three_reruns():
    firsts = [built(None) for _ in range(3)]
    reruns = [(label, ("json", "text")) for label in ("lmz", "cdr")]
    assert not passes(verify._determinism, *firsts, reruns)


def test_budget_is_strict():
    assert passes(verify._budget, verify.TIME_BUDGET_SECONDS - 0.01)
    assert not passes(verify._budget, verify.TIME_BUDGET_SECONDS)


def counting(monkeypatch, modules, name, calls, count=lambda *args: True):
    """Count the calls of `name` for which `count(*args)` holds, through
    the binding of each of `modules` that has one."""
    for module in modules:
        if not hasattr(module, name):
            continue
        original = getattr(module, name)

        def counted(*args, original=original, **kwargs):
            if count(*args):
                calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def test_one_sweep_builds_each_report_twice(monkeypatch):
    calls = {}
    for name in ("run_lmz", "run_cdr_suite"):
        counting(monkeypatch, (verify, report), name, calls)
    ghz = parity.ghz_record_system()
    counting(monkeypatch, (parity,), "analyze", calls, lambda system: system == ghz)
    rows, _, timings = verify.run_all_checks()
    assert all(row["passed"] for row in rows)
    # lmz, cdr and the GHZ analysis: the evidence build and check 9's rerun.
    assert calls == {"run_lmz": 2, "run_cdr_suite": 2, "analyze": 2}
    built = [label for label, _ in timings if label.startswith("evidence ")]
    assert len(built) == len(set(built))


def test_a_differing_second_build_fails_row_9(monkeypatch, capsys):
    original, calls = report.run_lmz, []

    def second_differs(config):
        result = original(config)
        calls.append(config)
        if len(calls) == 2:
            result.cpl = dataclasses.replace(result.cpl, intact_matches=0)
        return result

    monkeypatch.setattr(report, "run_lmz", second_differs)
    assert main(["verify", "--all", "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)["results"]["checks"]
    failed = {row["id"]: row["detail"] for row in rows if not row["passed"]}
    assert failed == {9: "JSON mismatch for run lmz --shots 10000 --seed 13 --tolerance 1e-09"}


def test_a_text_only_difference_fails_row_9(monkeypatch, capsys):
    original, calls = verify.render_text, []

    def second_lmz_differs(doc):
        text = original(doc)
        if doc.command.startswith("run lmz"):
            calls.append(doc.command)
            if len(calls) == 2:
                text += " "
        return text

    monkeypatch.setattr(verify, "render_text", second_lmz_differs)
    assert main(["verify", "--all", "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)["results"]["checks"]
    failed = {row["id"]: row["detail"] for row in rows if not row["passed"]}
    assert failed == {9: "text mismatch for run lmz --shots 10000 --seed 13 --tolerance 1e-09"}
    assert len(calls) == 2


class Sentinel:
    """Evidence that a weak reference can watch."""


class Unbuildable(Exception):
    """The exception of evidence whose build raised."""


def test_evidence_is_freed_right_after_its_last_reader(monkeypatch):
    # a and b are read by row 1, the raising c by row 2, b again and d by
    # row 3, e by row 4. Each is built on first use, must be gone by the
    # next build after its last reader, and must live until then.
    checks = tuple(
        (idx, f"row {idx}", names, lambda *inputs: (True, "ok"))
        for idx, names in enumerate(
            (("a", "b"), ("c",), ("b", "d"), ("e", "elapsed")), 1))
    refs, alive_at_build = {}, {}

    def builder(name):
        def build():
            alive_at_build[name] = sorted(n for n, ref in refs.items() if ref())
            value = Unbuildable(name) if name == "c" else Sentinel()
            refs[name] = weakref.ref(value)
            if name == "c":
                raise value
            return value
        return build

    monkeypatch.setattr(verify, "_CHECKS", checks)
    monkeypatch.setattr(verify, "_EVIDENCE", {n: builder(n) for n in "abcde"})
    monkeypatch.setattr(verify, "_LAST_READER", verify._last_readers(checks))
    assert verify._LAST_READER == {"a": 1, "b": 3, "c": 2, "d": 3, "e": 4}
    gc.disable()    # freed by reference counting, not by a collection
    try:
        rows, _, timings = verify.run_all_checks()
        alive_at_end = sorted(n for n, ref in refs.items() if ref())
    finally:
        gc.enable()
    assert alive_at_build == {
        "a": [], "b": ["a"], "c": ["b"], "d": ["b"], "e": []}
    assert alive_at_end == []
    assert [(row["id"], row["passed"], row["detail"]) for row in rows] == [
        (1, True, "ok"), (2, False, "raised Unbuildable: c"),
        (3, True, "ok"), (4, True, "ok")]
    assert [label for label, _ in timings if label.startswith("evidence ")] == [
        f"evidence {n}" for n in "abcde"]


@pytest.mark.parametrize("evidence", [verify._lmz, verify._cdr], ids=["lmz", "cdr"])
def test_flow_states_are_freed_before_rendering(evidence, monkeypatch):
    original_build, original_render = verify.build_run_document, verify._render
    states, alive_at_render = [], []

    def build(*flags):
        result, doc = original_build(*flags)
        reports = result if isinstance(result, list) else [result]
        states.extend(weakref.ref(snap.state) for rep in reports for snap in rep.snapshots)
        return result, doc

    def render(doc):
        alive_at_render.append(sum(ref() is not None for ref in states))
        return original_render(doc)

    monkeypatch.setattr(verify, "build_run_document", build)
    monkeypatch.setattr(verify, "_render", render)
    gc.disable()    # freed by reference counting, not by a collection
    try:
        evidence()
    finally:
        gc.enable()
    assert states and alive_at_render == [0]


def test_failing_evidence_fails_only_the_rows_that_need_it(monkeypatch, capsys):
    def broken(**kwargs):
        raise RuntimeError("suite unavailable")

    monkeypatch.setattr(report, "run_cdr_suite", broken)
    rows, _, _ = verify.run_all_checks()
    assert [row["id"] for row in rows] == list(range(1, 11))
    failed = {row["id"]: row["detail"] for row in rows if not row["passed"]}
    assert failed == dict.fromkeys((1, 3, 5, 6, 9), "raised RuntimeError: suite unavailable")
    assert main(["verify", "--all"]) == 1
    assert "verdict: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("evidence, argv", [
    (verify._lmz, ["run", "lmz", "--shots", "10000", "--seed", "13"]),
    (verify._cdr, ["run", "cdr", "--experiment", "all", "--shots", "10000", "--seed", "11"]),
    (verify._ghz_analysis, ["check-assignments", "--builtin", "ghz"]),
], ids=["lmz", "cdr", "ghz"])
def test_evidence_is_the_report_the_cli_prints(evidence, argv, capsys):
    printed = []
    for fmt in ("json", "text"):
        assert main(argv + ["--format", fmt]) == 0
        printed.append(hashlib.sha256(capsys.readouterr().out.encode()).digest())
    assert evidence().rendered == tuple(printed)
