"""Both protocol flows end to end, cross-checked against dense pipelines."""
import dataclasses
import functools
import json
import math
import subprocess
import sys
import tracemalloc
from itertools import permutations
from itertools import product as iter_product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    expect,
    ghz_amps,
    op,
    premeasure_unitary,
    random_stack,
    random_state,
    replay_records,
    same_bits,
    two_time_distribution,
)
from relfacts.errors import InternalConsistencyError, ProtocolError
from relfacts.observers import (
    Premeasurement,
    RelativeFact,
    _premeasure_array,
    ledger,
    lift,
    premeasure,
)
from relfacts.pauli import PauliString
from relfacts import scenarios
from relfacts.cli import main
from relfacts.report import build_run_document, from_scenario, render_text
from relfacts.scenarios import (
    ALICE_MEMORY,
    BOB_MEMORY,
    CONSTRAINT_SIGNS,
    DEFAULT_TOLERANCE,
    MAX_SHOTS,
    MIN_TOLERANCE,
    NUM_QUBITS,
    SYSTEM_QUBITS,
    CdrReport,
    CoexistingRecords,
    CommutationSurvey,
    DisturbedDiagnostic,
    FullRestoration,
    LmzReport,
    MemoryRestoration,
    SamePairAnticommute,
    SampleTally,
    ScenarioConfig,
    TransportedCertificate,
    _certify_records,
    _draw_outcome_counts,
    _z_readout_distribution,
    alice_premeasurements,
    certify_constraint,
    cpl_check,
    lifted_direct_observables,
    record_readout_observables,
    run_cdr,
    run_cdr_suite,
    run_lmz,
    sample_records,
)
from relfacts.statevector import (
    StateVector,
    expectation,
    fidelity,
    prepare_ghz,
    zero_state,
)

EXPECTED_SIGNS = (1, -1, -1, -1)


# Unit roundoff of float64.
UNIT_ROUNDOFF = 2.0 ** -53


def gamma(k):
    """Relative error bound of a result rounded k times in sequence."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def within(k, reference):
    """Bound on |x - reference| when x is within gamma(k) of an exact
    value P and the reference within gamma(2) of P."""
    return (gamma(k) + gamma(2)) / (1 - gamma(2)) * reference


def constraint(report, constraint_id, kind):
    found = [c for c in report.constraints
             if c.constraint_id == constraint_id and c.kind == kind]
    assert len(found) == 1
    return found[0]


def assert_born_statuses(facts, evidence):
    """Each fact's status against the dense Born-rule `evidence` of its
    record (oracle.replay_records): 'erased' iff the record was reversed
    and its memory reads 0; otherwise 'current' iff its agreement is 1 and
    'disturbed' iff its agreement is at most 0.5."""
    assert [f.label for f in facts] == list(evidence)
    for fact in facts:
        agreement, was_reversed, excited = evidence[fact.label]
        assert (fact.status == "erased") == (was_reversed and excited <= 1e-12), fact
        if fact.status != "erased":
            assert (fact.status == "current") == (abs(agreement - 1) <= 1e-12), fact
            assert (fact.status == "disturbed") == (agreement <= 0.5), fact


class TestScenarioConfig:
    def test_defaults(self):
        assert dataclasses.astuple(ScenarioConfig()) == (None, 0, 0, DEFAULT_TOLERANCE)

    def test_experiment_id_selects_the_flow(self, lmz_exact, cdr_suite_sampled):
        # The report's type names the flow; the config holds only the flags.
        assert type(lmz_exact) is LmzReport
        assert lmz_exact.config.experiment_id is None
        assert [type(r) for r in cdr_suite_sampled] == [CdrReport] * 4
        assert [r.config.experiment_id for r in cdr_suite_sampled] == [1, 2, 3, 4]
        assert [f.name for f in dataclasses.fields(ScenarioConfig)] == [
            "experiment_id", "shots", "master_seed", "tolerance"]

    @pytest.mark.parametrize("kwargs", [
        {"experiment_id": 0},
        {"experiment_id": 5},
        {"experiment_id": 2.5},
        {"experiment_id": "1"},                            # a str, not an int
        {"shots": -1},
        {"tolerance": 0.0},
        {"master_seed": -1},
        {"master_seed": 2**64},
        {"tolerance": 0.5},
        {"tolerance": 3.0},
        {"tolerance": float("inf")},
        {"tolerance": 1e-13},
        {"tolerance": 5e-324},
        {"tolerance": float("nan")},
        {"shots": MAX_SHOTS + 1},
    ])
    def test_rejections(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)

    def test_numbers_become_exact_python_numbers(self):
        config = ScenarioConfig(
            experiment_id=np.int8(2), shots=np.int64(1000),
            master_seed=np.uint64(2**64 - 1), tolerance=np.float32(1e-3))
        assert config == ScenarioConfig(
            experiment_id=2, shots=1000, master_seed=2**64 - 1,
            tolerance=float(np.float32(1e-3)))
        assert [type(v) for v in dataclasses.astuple(config)] == [
            int, int, int, float]

    @pytest.mark.parametrize("kwargs", [
        {"experiment_id": 2.0},  # in range, but not an integer
        {"shots": 2.0},
        {"master_seed": 7.0},
        {"tolerance": "1e-9"},
    ])
    def test_non_numbers_raise_type_error(self, kwargs):
        with pytest.raises(TypeError):
            ScenarioConfig(**kwargs)

    def test_flow_config_cross_checks(self):
        with pytest.raises(ValueError):
            run_cdr(ScenarioConfig())
        with pytest.raises(ValueError):
            run_lmz(ScenarioConfig(experiment_id=1))


class TestObservableTables:
    def test_lifted_direct_observables(self):
        bhats = lifted_direct_observables(alice_premeasurements())
        assert tuple(b.label() for b in bhats) == (
            "+XIIXIIIII", "+IXIIXIIII", "+IIXIIXIII")

    def test_record_readouts(self):
        ahats = record_readout_observables()
        assert tuple(a.label() for a in ahats) == (
            "+IIIZIIIII", "+IIIIZIIII", "+IIIIIZIII")


class TestLmzExact:
    def test_passes(self, lmz_exact):
        assert type(lmz_exact) is LmzReport
        assert lmz_exact.config.experiment_id is None
        assert lmz_exact.passed is True

    def test_stage_labels(self, lmz_exact):
        assert [s.label for s in lmz_exact.snapshots] == [
            "prepared", "alice-complete", "bob-1", "bob-2", "bob-3"]

    def test_operator_certifications(self, lmz_exact):
        for cid, expected in zip((1, 2, 3, 4), EXPECTED_SIGNS):
            c = constraint(lmz_exact, cid, "operator")
            assert c.stage == "alice-complete"
            assert c.expected == expected
            assert c.expectation == pytest.approx(expected, abs=1e-12)
            assert c.certified

    def test_record_certifications(self, lmz_exact):
        stages = {1: "bob-3", 2: "bob-1", 3: "bob-2-only", 4: "bob-3-only"}
        for cid, expected in zip((1, 2, 3, 4), EXPECTED_SIGNS):
            c = constraint(lmz_exact, cid, "record")
            assert c.stage == stages[cid]
            assert c.expectation == pytest.approx(expected, abs=1e-12)
            assert c.certified

    def test_commutation_survey(self, lmz_exact):
        survey = lmz_exact.commutation
        assert survey.product_labels == {
            "1": "+XXXXXXIII",
            "2": "+XIIXZZIII",
            "3": "+IXIZXZIII",
            "4": "+IIXZZXIII",
        }
        assert survey.all_products_commute is True
        assert all(survey.triples_commute.values())
        assert len(survey.same_pair_anticommute) == 3
        assert all(row.anticommute for row in survey.same_pair_anticommute)
        assert survey.cross_pair_commute is True

    def test_transported_final_certificate(self, lmz_exact):
        # frozen from the independent dense computation
        want = [
            ("+XXXXXXIII", 1),
            ("+XIIXZZIXX", -1),
            ("+IXIZXZXIX", -1),
            ("+IIXZZXXXI", -1),
        ]
        assert [(e.observable, e.expected)
                for e in lmz_exact.final_certificate] == want
        for entry in lmz_exact.final_certificate:
            assert entry.expectation == pytest.approx(entry.expected, abs=1e-12)
            assert entry.certified

    def test_disturbed_diagnostic(self, lmz_exact):
        diag = lmz_exact.disturbed_diagnostic
        assert diag.records == ("B1", "A2", "A3")
        assert diag.early_expectation == pytest.approx(-1.0, abs=1e-12)
        assert diag.final_expectation == pytest.approx(0.0, abs=1e-10)
        assert diag.gap == pytest.approx(1.0, abs=1e-10)
        assert diag.gap_exceeds_half is True
        assert diag.record_statuses == {"A2": "disturbed", "A3": "disturbed"}

    def test_cpl_exact(self, lmz_exact):
        cpl = lmz_exact.cpl
        assert cpl.system_label == "+YIIIIIIII"
        assert cpl.record_label == "A1"
        assert cpl.record_qubit == ALICE_MEMORY[0]
        assert cpl.disturbance_label == "+XIIXIIIII"
        assert cpl.intact_expectation == pytest.approx(1.0, abs=1e-12)
        assert cpl.disturbed_expectation == pytest.approx(0.0, abs=1e-10)
        assert cpl.operator_product_after == pytest.approx(1.0, abs=1e-12)
        assert cpl.premise_certified is True
        assert cpl.violation_demonstrated is True

    def test_final_ledger_statuses(self, lmz_exact):
        statuses = {f.label: f.status for f in lmz_exact.snapshots[-1].facts}
        assert statuses == {
            "A1": "disturbed", "A2": "disturbed", "A3": "disturbed",
            "B1": "current", "B2": "current", "B3": "current",
        }
        stages = {f.label: f.stage for f in lmz_exact.snapshots[-1].facts}
        assert stages == {
            "A1": "alice-complete", "A2": "alice-complete", "A3": "alice-complete",
            "B1": "bob-1", "B2": "bob-2", "B3": "bob-3",
        }


class TestFlowResultTypes:
    def test_results_are_frozen_dataclasses(self, lmz_exact, cdr_suite_sampled):
        survey = lmz_exact.commutation
        assert type(survey) is CommutationSurvey
        assert [type(row) for row in survey.same_pair_anticommute] == [SamePairAnticommute] * 3
        assert [type(e) for e in lmz_exact.final_certificate] == [TransportedCertificate] * 4
        assert type(lmz_exact.disturbed_diagnostic) is DisturbedDiagnostic
        assert [type(r.restoration) for r in cdr_suite_sampled] == [
            FullRestoration, MemoryRestoration, MemoryRestoration, MemoryRestoration]
        assert [type(r.coexisting_records) for r in cdr_suite_sampled] == [CoexistingRecords] * 4
        results = [survey, *survey.same_pair_anticommute, *lmz_exact.final_certificate,
                   lmz_exact.disturbed_diagnostic]
        results += [x for r in cdr_suite_sampled for x in (r.restoration, r.coexisting_records)]
        for result in results:
            for f in dataclasses.fields(result):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(result, f.name, getattr(result, f.name))

    def test_restoration_kind_is_fixed_by_the_type(self):
        assert FullRestoration(1.0, True).kind == "full"
        assert MemoryRestoration(3, 1.0, 0.0, True).kind == "memory"
        with pytest.raises(TypeError):
            FullRestoration(1.0, True, kind="memory")

    def test_each_flow_reports_only_its_own_results(self):
        # No key restates the config or the flow, and no flow carries the
        # other flow's results as empty slots.
        def results(scenario, experiment):
            doc = build_run_document(scenario, experiment, 0, 0, DEFAULT_TOLERANCE)[1]
            return json.loads(doc.to_json())["results"]

        shared = {"constraints", "sampling", "stages", "ledger"}
        lmz = results("lmz", None)
        assert set(lmz) == shared | {
            "commutation", "final_certificate", "disturbed_diagnostic", "cpl"}
        assert [set(row) for row in lmz["commutation"]["same_pair_anticommute"]] == [
            {"pair", "anticommute"}] * 3
        cdr = shared | {"restoration", "coexisting_records"}
        assert set(results("cdr", "2")) == cdr
        suite = results("cdr", "all")
        assert set(suite) == {"experiments"}
        assert [set(body) for body in suite["experiments"]] == [cdr] * 4


# The record steps each protocol applies, written out from its definition
# rather than read from the flows: (label, premeasured factors, memory,
# reversal). Alice's friends premeasure Y on system qubit k onto memory
# 3+k; in lmz Bob premeasures X_k lifted through Alice's record (X on
# system k and on memory 3+k) onto memory 6+k; in cdr Bob premeasures the
# bare X_k once the record of pair k has been reversed.
ALICE_STEPS = [
    ("A1", {0: "Y"}, 3, False), ("A2", {1: "Y"}, 4, False), ("A3", {2: "Y"}, 5, False)]
LMZ_STEPS = ALICE_STEPS + [
    ("B1", {0: "X", 3: "X"}, 6, False), ("B2", {1: "X", 4: "X"}, 7, False),
    ("B3", {2: "X", 5: "X"}, 8, False)]
CDR_STEPS = {
    1: ALICE_STEPS + [
        ("A3", {2: "Y"}, 5, True), ("A2", {1: "Y"}, 4, True), ("A1", {0: "Y"}, 3, True),
        ("B1", {0: "X"}, 6, False), ("B2", {1: "X"}, 7, False), ("B3", {2: "X"}, 8, False)],
    2: ALICE_STEPS + [("A1", {0: "Y"}, 3, True), ("B1", {0: "X"}, 6, False)],
    3: ALICE_STEPS + [("A2", {1: "Y"}, 4, True), ("B2", {1: "X"}, 7, False)],
    4: ALICE_STEPS + [("A3", {2: "Y"}, 5, True), ("B3", {2: "X"}, 8, False)],
}
# Steps applied when each stage is recorded.
LMZ_STAGE_STEPS = (0, 3, 4, 5, 6)
CDR_STAGE_STEPS = {1: (0, 3, 6, 9), 2: (0, 3, 4, 5), 3: (0, 3, 4, 5), 4: (0, 3, 4, 5)}


class TestImpliedStatuses:
    def test_erasure_disturbance_and_order(self):
        pms = alice_premeasurements()
        bob1 = Premeasurement(lifted_direct_observables(pms)[0], BOB_MEMORY[0], "bob")
        steps = [("A1", pms[0], "alice"), ("A2", pms[1], "alice"),
                 ("B1", bob1, "bob"), ("A2", pms[1], None), ("A3", pms[2], "alice")]
        # Bob's lifted X_1 acts with X on A1's memory; A3 is written after it.
        assert [(f.label, f.status) for f in ledger(steps)] == [
            ("A1", "disturbed"), ("A2", "erased"), ("B1", "current"),
            ("A3", "current")]
        assert ledger(steps[:2]) == (
            RelativeFact("alice", "A1", ALICE_MEMORY[0], "alice", "current"),
            RelativeFact("alice", "A2", ALICE_MEMORY[1], "alice", "current"))

    @pytest.mark.parametrize("experiment", [None, 1, 2, 3, 4])
    def test_every_stage_matches_the_dense_replay(self, experiment, lmz_exact,
                                                  cdr_suite_sampled):
        if experiment is None:
            report, steps, stage_steps = lmz_exact, LMZ_STEPS, LMZ_STAGE_STEPS
        else:
            report = cdr_suite_sampled[experiment - 1]
            steps, stage_steps = CDR_STEPS[experiment], CDR_STAGE_STEPS[experiment]
        evidence = replay_records(NUM_QUBITS, ghz_amps(NUM_QUBITS, SYSTEM_QUBITS), steps)
        assert len(report.snapshots) == len(stage_steps)
        for snap, applied in zip(report.snapshots, stage_steps):
            assert_born_statuses(snap.facts, evidence[applied])
        assert_born_statuses(report.snapshots[-1].facts, evidence[-1])

    def test_refuses_what_the_rule_cannot_judge(self):
        # Alice premeasures Z0 onto memory 1, Bob premeasures lift(X0) = XX
        # onto memory 2, and Bob's record is reversed: Alice's agreement
        # drops to 0 while Bob's record exists and is back to 1 after.
        steps = [("A", {0: "Z"}, 1, False), ("B", {0: "X", 1: "X"}, 2, False),
                 ("B", {0: "X", 1: "X"}, 2, True)]
        amps = random_state(np.random.default_rng(3), 3, zero_qubits=(1, 2))
        agreements = [e["A"][0] for e in replay_records(3, amps, steps)[1:]]
        assert agreements == pytest.approx([1.0, 0.0, 1.0], abs=1e-12)
        a = Premeasurement(PauliString.from_label("ZII"), 1, "alice")
        b = Premeasurement(lift(PauliString.from_label("XII"), a), 2, "bob")
        assert b.observable.label() == "+XXI"
        written = [("A", a, "s"), ("B", b, "s")]
        assert [f.status for f in ledger(written)] == ["disturbed", "current"]
        zz = Premeasurement(PauliString.from_label("ZIZI"), 1, "alice")
        for refused in (
                written + [("B", b, None)],   # undoes A's disturbance
                written + [("A", a, None)],   # A is disturbed
                written[:1] + [("B", b, None)],   # B was never written
                written[:1] + [("A", a, None), ("A", a, None)],   # erased twice
                written[:1] + [("A", Premeasurement(a.observable, 1, "bob"), None)],
                written[:1] + [("A", a, "s")],   # label written twice
                written[:1] + [("C", Premeasurement(   # A's memory again
                    PauliString.from_label("XII"), 1, "c"), "s")],
                [("A", a, "s"), ("A", a, None),   # X on an erased memory
                 ("C", Premeasurement(PauliString.from_label("IXI"), 2, "c"), "s")],
                [("A", a, "s"), ("C", Premeasurement(   # changes A's observable
                    PauliString.from_label("XII"), 2, "c"), "s"), ("A", a, None)],
                [("A", zz, "s"), ("C", Premeasurement(   # writes into A's support
                    PauliString.from_label("IIIZ"), 2, "c"), "s"), ("A", zz, None)]):
            with pytest.raises(ValueError):
                ledger(refused)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=500, deadline=None)
    def test_accepted_step_lists_match_the_born_rule(self, seed):
        # Random Pauli premeasurements onto cleared memories and reversals of
        # written records, on 2..5 qubits; a list ledger refuses is skipped.
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(2, 6))
        amps = random_state(rng, num_qubits, zero_qubits=[
            q for q in range(num_qubits) if rng.random() < 0.7])
        steps, applied, state = [], [], amps
        for _ in range(int(rng.integers(1, 7))):
            written = [s for s in steps if not s[3]]
            cleared = [q for q in range(num_qubits)
                       if expect(state, op(num_qubits, {q: "Z"})) >= 1 - 2e-12]
            if written and (rng.random() < 0.3 or not cleared):
                label, factors, memory, _ = written[int(rng.integers(len(written)))]
                step = (label, factors, memory, True)
            elif cleared:
                memory = int(rng.choice(cleared))
                factors = {q: f for q in range(num_qubits)
                           if q != memory and (f := str(rng.choice(list("IXYZ")))) != "I"}
                if not factors:
                    continue
                step = (f"R{len(steps)}", factors, memory, False)
            else:
                break
            label, factors, memory, reversal = step
            steps.append(step)
            applied.append((label, Premeasurement(
                PauliString.from_map(num_qubits, factors), memory, "friend"),
                None if reversal else "stage"))
            state = premeasure_unitary(num_qubits, op(num_qubits, factors), memory) @ state
        try:
            ledger(applied)
        except ValueError:
            return
        evidence = replay_records(num_qubits, amps, steps)
        for n in range(len(applied) + 1):
            assert_born_statuses(ledger(applied[:n]), evidence[n])


class TestLmzAgainstDensePipeline:
    def test_stage_states_match_dense_unitaries(self, lmz_exact):
        amps = ghz_amps(NUM_QUBITS, SYSTEM_QUBITS)
        np.testing.assert_allclose(
            lmz_exact.snapshots[0].state.amplitudes, amps, atol=1e-12)
        for k in range(3):
            u = premeasure_unitary(
                NUM_QUBITS, op(NUM_QUBITS, {SYSTEM_QUBITS[k]: "Y"}), ALICE_MEMORY[k])
            amps = u @ amps
        np.testing.assert_allclose(
            lmz_exact.snapshots[1].state.amplitudes, amps, atol=1e-12)
        for k in range(3):
            u = premeasure_unitary(
                NUM_QUBITS,
                op(NUM_QUBITS, {SYSTEM_QUBITS[k]: "X", ALICE_MEMORY[k]: "X"}),
                BOB_MEMORY[k])
            amps = u @ amps
            np.testing.assert_allclose(
                lmz_exact.snapshots[2 + k].state.amplitudes, amps, atol=1e-12)

    def test_stage_one_expectations_match_dense(self, lmz_exact):
        state = lmz_exact.snapshots[1].state.amplitudes
        products = {
            1: {0: "X", 1: "X", 2: "X", 3: "X", 4: "X", 5: "X"},
            2: {0: "X", 3: "X", 4: "Z", 5: "Z"},
            3: {1: "X", 3: "Z", 4: "X", 5: "Z"},
            4: {2: "X", 3: "Z", 4: "Z", 5: "X"},
        }
        for cid, factors in products.items():
            val = expect(state, op(NUM_QUBITS, factors))
            assert val == pytest.approx(EXPECTED_SIGNS[cid - 1], abs=1e-12)

    def test_two_time_agreement_matches_dense(self, lmz_exact):
        stage1 = lmz_exact.snapshots[1].state
        sys_mat = op(NUM_QUBITS, {SYSTEM_QUBITS[0]: "Y"})
        rec_mat = op(NUM_QUBITS, {ALICE_MEMORY[0]: "Z"})
        disturb = premeasure_unitary(
            NUM_QUBITS,
            op(NUM_QUBITS, {SYSTEM_QUBITS[0]: "X", ALICE_MEMORY[0]: "X"}),
            BOB_MEMORY[0])
        dim = 1 << NUM_QUBITS
        for between, want in ((np.eye(dim), 1.0), (disturb, 0.0)):
            total = 0.0
            for v in (1, -1):
                for w in (1, -1):
                    proj_v = (np.eye(dim) + v * sys_mat) / 2
                    proj_w = (np.eye(dim) + w * rec_mat) / 2
                    vec = proj_w @ between @ proj_v @ stage1.amplitudes
                    total += v * w * float(np.vdot(vec, vec).real)
            assert total == pytest.approx(want, abs=1e-10)


class TestLmzSampled:
    def test_tallies_certify_products(self, lmz_sampled):
        assert len(lmz_sampled.sampling) == 4
        for tally, expected in zip(lmz_sampled.sampling, EXPECTED_SIGNS):
            assert tally.shots == 500
            assert tally.violations == 0
            assert sum(tally.outcome_counts.values()) == 500
            for key in tally.outcome_counts:
                assert len(key) == 3
                sign = 1 if key.count("-") % 2 == 0 else -1
                assert sign == expected
            assert all(m.within_band for m in tally.marginals)

    def test_record_constraints_carry_shot_evidence(self, lmz_sampled):
        for cid in (1, 2, 3, 4):
            c = constraint(lmz_sampled, cid, "record")
            assert c.shots == 500
            assert c.violations == 0
            assert c.certified

    def test_cpl_sampled(self, lmz_sampled):
        cpl = lmz_sampled.cpl
        assert cpl.shots == 500
        assert cpl.intact_matches == 500
        # disturbed agreement is a fair coin; 5 sigma band around 250
        assert 194 <= cpl.disturbed_matches <= 306

    def test_deterministic_rerun(self, lmz_sampled):
        again = run_lmz(ScenarioConfig(shots=500, master_seed=3))
        command = "run lmz --shots 500 --seed 3"
        assert (from_scenario(command, again).to_json()
                == from_scenario(command, lmz_sampled).to_json())

    def test_different_seed_changes_counts(self, lmz_sampled):
        other = run_lmz(ScenarioConfig(shots=500, master_seed=4))
        assert other.passed
        a = [t.outcome_counts for t in lmz_sampled.sampling]
        b = [t.outcome_counts for t in other.sampling]
        assert a != b

    def test_shot_totals(self, lmz_sampled):
        # 4 record tallies + 2 two-time variants, 500 shots each
        assert [t.shots for t in lmz_sampled.sampling] == [500] * 4
        assert lmz_sampled.cpl.shots == 500


class TestOrderIndependence:
    def test_bob_premeasurements_commute(self, lmz_exact):
        stage1 = lmz_exact.snapshots[1].state
        bhats = lifted_direct_observables(alice_premeasurements())
        pms = [Premeasurement(bhats[k], BOB_MEMORY[k], "bob") for k in range(3)]
        reference = None
        for order in permutations(range(3)):
            state = stage1
            for k in order:
                state = premeasure(state, pms[k])
            if reference is None:
                reference = state
            else:
                assert fidelity(state, reference) == pytest.approx(1.0, abs=1e-12)

    def test_alice_premeasurements_commute(self):
        base = prepare_ghz(zero_state(NUM_QUBITS), SYSTEM_QUBITS)
        pms = alice_premeasurements()
        reference = None
        for order in permutations(range(3)):
            state = base
            for k in order:
                state = premeasure(state, pms[k])
            if reference is None:
                reference = state
            else:
                assert fidelity(state, reference) == pytest.approx(1.0, abs=1e-12)


class TestCertifyConstraint:
    def test_non_commuting_observables_refused(self):
        state = zero_state(1)
        with pytest.raises(ProtocolError):
            certify_constraint(
                state,
                (PauliString.from_label("X"), PauliString.from_label("Z")),
                1, labels=("a", "b"), constraint_id=1)

    def test_argument_validation(self):
        state = zero_state(2)
        obs = (PauliString.from_label("ZI"), PauliString.from_label("IZ"))
        with pytest.raises(ValueError):
            certify_constraint(state, obs, 1, labels=("a",), constraint_id=1)
        with pytest.raises(ValueError):
            certify_constraint(state, obs, 0, labels=("a", "b"), constraint_id=1)
        with pytest.raises(ValueError):
            certify_constraint(state, obs, 1, labels=("a", "b"),
                               constraint_id=1, kind="other")
        with pytest.raises(ValueError):
            certify_constraint(
                zero_state(3), obs, 1, labels=("a", "b"), constraint_id=1)

    def test_sampled_certification(self, lmz_exact):
        # Record certification of constraint 2 right after Bob's first step:
        # exact product plus per-shot evidence drawn on the sampling stream.
        config = ScenarioConfig(shots=100, master_seed=9)
        sampling = []
        record = scenarios._plan().records[1]
        result = _certify_records(
            lmz_exact.snapshots[2].state, record, "bob-1", "t", config, sampling)
        assert result.kind == "record"
        assert result.labels == ("B1", "A2", "A3")
        assert result.expectation == pytest.approx(-1.0, abs=1e-12)
        assert result.shots == 100
        assert result.violations == 0
        assert result.certified
        assert [t.target for t in sampling] == ["t"]
        assert sampling[0].outcome_counts == sample_records(
            lmz_exact.snapshots[2].state, target="t", constraint_id=2,
            stage="bob-1", records=(("B1", BOB_MEMORY[0]), ("A2", ALICE_MEMORY[1]),
                                    ("A3", ALICE_MEMORY[2])),
            expected_product=-1, shots=100, master_seed=9,
            target_index=2).outcome_counts
        exact_only = _certify_records(
            lmz_exact.snapshots[2].state, record, "bob-1", "t", ScenarioConfig(), sampling)
        assert exact_only.shots == 0 and exact_only.certified
        assert len(sampling) == 1

    def test_a_sampled_violation_fails_the_certification(self, lmz_exact, monkeypatch):
        # The exact product holds, so only the tally can fail it.
        def one_violation(state, **kwargs):
            return SampleTally(
                target=kwargs["target"], constraint_id=kwargs["constraint_id"],
                stage=kwargs["stage"],
                record_labels=tuple(label for label, _ in kwargs["records"]),
                expected_product=kwargs["expected_product"],
                outcome_counts={"---": 99, "+--": 1})

        monkeypatch.setattr(scenarios, "sample_records", one_violation)
        sampling = []
        result = _certify_records(
            lmz_exact.snapshots[2].state, scenarios._plan().records[1], "bob-1", "t",
            ScenarioConfig(shots=100), sampling)
        assert abs(result.expectation + 1) <= 1e-12
        assert (result.shots, result.violations) == (100, 1)
        assert not result.certified

    def test_detects_wrong_sign(self):
        state = zero_state(2)
        obs = (PauliString.from_label("ZI"), PauliString.from_label("IZ"))
        result = certify_constraint(
            state, obs, -1, labels=("a", "b"), constraint_id=1)
        assert not result.certified
        assert result.expectation == pytest.approx(1.0)
        assert result.shots == 0 and result.violations == 0


class TestSampleTally:
    def test_counts_derive_shots_violations_and_marginals(self):
        tally = SampleTally(
            target="t", constraint_id=2, stage="s", record_labels=("a", "b", "c"),
            expected_product=-1,
            outcome_counts={"++-": 260, "+--": 240, "-+-": 10, "---": 490})
        assert tally.shots == 1000
        assert tally.violations == 250    # "+--" and "-+-" multiply to +1
        assert [(m.label, m.plus_count, m.within_band) for m in tally.marginals] == [
            ("a", 500, True), ("b", 270, False), ("c", 0, False)]

    def test_derived_fields_cannot_be_set(self, lmz_sampled):
        tally = lmz_sampled.sampling[0]
        with pytest.raises(ValueError):
            dataclasses.replace(tally, violations=1)
        with pytest.raises(ValueError):
            dataclasses.replace(tally, marginals=())
        with pytest.raises(TypeError):
            SampleTally(target="t", constraint_id=1, stage="s", record_labels=("a",),
                        expected_product=1, outcome_counts={"+": 1}, shots=2)
        # Replacing the counts derives everything again.
        flipped = dataclasses.replace(tally, outcome_counts={"---": 7})
        assert (flipped.shots, flipped.violations) == (7, 7)


class TestSamplingMachinery:
    def test_distribution_matches_dense_projector_cascade(self):
        rng = np.random.default_rng(12)
        qubits = (0, 2, 1, 0)
        mats = [op(3, {q: "Z"}) for q in qubits]
        for _ in range(10):
            amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            amps /= np.linalg.norm(amps)
            dist = dict(_z_readout_distribution(amps, qubits))
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
            for values in iter_product((1, -1), repeat=len(qubits)):
                vec = amps
                for v, m in zip(values, mats):
                    vec = (np.eye(8) + v * m) @ vec / 2
                assert dist.get(values, 0.0) == pytest.approx(
                    float(np.vdot(vec, vec).real), abs=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_z_readouts_bincount_within_its_rounding_bound(self, seed):
        # Random 1..9-qubit states, 1..5 Z readouts with repeats allowed.
        # Each probability is held to an fsum reference under the bincount's
        # own rounding bound.
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(1, 10))
        qubits = [int(q) for q in rng.integers(0, num_qubits, int(rng.integers(1, 6)))]
        amps = (rng.standard_normal(1 << num_qubits)
                + 1j * rng.standard_normal(1 << num_qubits))
        amps /= np.linalg.norm(amps)
        binned = _z_readout_distribution(amps, qubits)
        # The squared parts of the amplitudes each outcome keeps. Their
        # math.fsum is within 2 roundings of the exact mass P: one in each
        # square, one in the sum.
        parts = {}
        for i, a in enumerate(amps.tolist()):
            values = tuple(1 - 2 * ((i >> q) & 1) for q in qubits)
            parts.setdefault(values, []).extend((a.real * a.real, a.imag * a.imag))
        # Every outcome with a kept state, +1 before -1 at every readout.
        assert [values for values, _ in binned] == sorted(parts, reverse=True)
        for values, p in binned:
            reference = math.fsum(parts[values])
            kept = len(parts[values]) // 2
            # bincount adds the m kept weights in sequence, each rounded
            # twice: within gamma(m + 1) of P.
            assert abs(p - reference) <= within(kept + 1, reference)

    def test_z_readouts_check_their_sum(self):
        with pytest.raises(InternalConsistencyError, match="sum to"):
            _z_readout_distribution(np.array([1.0, 1.0]), [0])

    def test_premeasurement_step_matches_dense(self):
        rng = np.random.default_rng(41)
        system = PauliString.from_label("YII")
        pm = Premeasurement(PauliString.from_label("XII"), 2, "bob")
        unitary = premeasure_unitary(3, op(3, {0: "X"}), 2)
        for _ in range(5):
            amps = np.zeros(8, dtype=complex)
            amps[:4] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            amps /= np.linalg.norm(amps)
            result = cpl_check(StateVector(3, amps), system, "A", 1, pm)
            for between, got in (((), result.intact_expectation),
                                 ((unitary,), result.disturbed_expectation)):
                dist = two_time_distribution(amps, op(3, {0: "Y"}), between, op(3, {1: "Z"}))
                assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
                want = sum(v * w * p for (v, w), p in dist.items())
                assert got == pytest.approx(want, abs=1e-12)

    def test_premeasurement_step_needs_cleared_memory(self):
        pm = Premeasurement(PauliString.from_label("XII"), 2, "bob")
        dirty = np.zeros(8, dtype=complex)
        dirty[0b100] = 1.0  # memory qubit 2 already set
        with pytest.raises(ProtocolError):
            cpl_check(StateVector(3, dirty), PauliString.from_label("ZII"), "A", 1, pm)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0, 1000]))
    @settings(max_examples=200, deadline=None)
    def test_cpl_check_matches_the_dense_two_time_distribution(self, seed, shots):
        # Random 2..5-qubit states whose disturbance memory is cleared, a
        # random record qubit, system observable acting elsewhere (so that
        # it commutes with the record) and disturbance. Reading the system
        # observable can excite the disturbance's memory in a branch, which
        # must then raise as premeasure() would.
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(2, 6))
        memory, record = (int(q) for q in rng.integers(num_qubits, size=2))
        amps = random_state(rng, num_qubits, zero_qubits=(memory,))

        def random_factors(excluded):
            factors = {q: str(rng.choice(list("XYZ"))) for q in range(num_qubits)
                       if q != excluded and rng.random() < 0.6}
            return factors or {(excluded + 1) % num_qubits: "Z"}

        system, disturbance = random_factors(record), random_factors(memory)
        sys_mat = op(num_qubits, system)
        excited = (np.arange(1 << num_qubits) >> memory) & 1 == 1
        branch_excited = max(
            float(np.sum(np.abs((amps + v * sys_mat @ amps)[excited]) ** 2)) / 4
            for v in (1, -1))
        pm = Premeasurement(PauliString.from_map(num_qubits, disturbance), memory, "bob")
        args = (StateVector(num_qubits, amps), PauliString.from_map(num_qubits, system),
                "R", record, pm)
        kwargs = dict(shots=shots, master_seed=seed)
        if branch_excited > 1e-10:
            with pytest.raises(ProtocolError, match="not in |0>"):
                cpl_check(*args, **kwargs)
            return
        result = cpl_check(*args, **kwargs)
        unitary = premeasure_unitary(num_qubits, op(num_qubits, disturbance), memory)
        z_rec = op(num_qubits, {record: "Z"})
        for between, expectation_, matches in (
                ((), result.intact_expectation, result.intact_matches),
                ((unitary,), result.disturbed_expectation, result.disturbed_matches)):
            dist = two_time_distribution(amps, sys_mat, between, z_rec)
            assert expectation_ == pytest.approx(
                sum(v * w * p for (v, w), p in dist.items()), abs=1e-12)
            agree = dist[(1, 1)] + dist[(-1, -1)]
            if agree <= 1e-12:
                assert matches == 0
            elif agree >= 1 - 1e-12:
                assert matches == shots
            else:
                sigma = math.sqrt(shots * agree * (1 - agree))
                assert abs(matches - shots * agree) <= 6 * sigma

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_cpl_branches_equal_the_stacked_kernel_bit_for_bit(self, seed):
        # cpl_check fills its two branch rows in place and premeasures them
        # one at a time. The amplitudes each two-time distribution is read
        # from must have the bits of the stacked expression: both branches
        # stacked and halved, then the disturbance applied to the stack.
        # The state mixes signed zeros in; the system observable acts with
        # Z at most on the disturbance's memory, which stays cleared.
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(2, 6))
        memory, record = (int(q) for q in rng.integers(num_qubits, size=2))
        amps = random_stack(rng, 1, num_qubits, 0.5)[0]
        amps[(np.arange(1 << num_qubits) >> memory) & 1 == 1] = np.copysign(
            0.0, rng.standard_normal(1 << (num_qubits - 1)))
        amps[0] += 1.0    # index 0 has the memory cleared: a nonzero norm
        amps /= np.linalg.norm(amps)
        system = PauliString.from_map(num_qubits, {
            q: "Z" if q == memory else str(rng.choice(list("XYZ")))
            for q in range(num_qubits) if q != record} or {record: "Z"})
        disturbance = {q: str(rng.choice(list("XYZ")))
                       for q in range(num_qubits) if q != memory and rng.random() < 0.6}
        pm = Premeasurement(PauliString.from_map(
            num_qubits, disturbance or {(memory + 1) % num_qubits: "Z"}), memory, "bob")
        seen, original = [], scenarios._z_readout_distribution

        def recorded(amplitudes, qubits):
            dist = original(amplitudes, qubits)
            seen.append((amplitudes.copy(), dist))
            return dist

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenarios, "_z_readout_distribution", recorded)
            cpl_check(StateVector(num_qubits, amps), system, "R", record, pm)
        o_amps = system.apply_to_array(amps)
        stacked = np.stack((amps + o_amps, amps - o_amps)) / 2
        for (got, dist), want in zip(seen, (stacked, _premeasure_array(stacked, pm)), strict=True):
            assert same_bits(got, want.ravel())
            assert dist == original(want.ravel(), (num_qubits, record))

    def test_draw_outcome_counts(self):
        dist = [((1,), 0.25), ((-1,), 0.75)]
        rng = np.random.default_rng(5)
        counts = dict(_draw_outcome_counts(dist, 1000, rng))
        assert counts[(1,)] + counts[(-1,)] == 1000
        assert 182 <= counts[(1,)] <= 318  # 5 sigma around 250
        again = dict(_draw_outcome_counts(dist, 1000, np.random.default_rng(5)))
        assert counts == again

    def test_draw_outcome_counts_law(self):
        dist = [((1, 1), 0.1), ((1, -1), 0.0), ((-1, 1), 0.6), ((-1, -1), 0.3)]
        shots = 10**6
        for seed in range(3):
            counts = dict(_draw_outcome_counts(dist, shots, np.random.default_rng(seed)))
            assert list(counts) == [values for values, _ in dist]
            assert sum(counts.values()) == shots
            assert counts[(1, -1)] == 0
            for values, p in dist:
                sigma = np.sqrt(shots * p * (1 - p))
                assert abs(counts[values] - p * shots) <= 5 * sigma

    def test_shot_cost_does_not_grow_with_shots(self):
        # One draw per shot would need exabytes here.
        report = run_lmz(ScenarioConfig(shots=MAX_SHOTS, master_seed=3))
        assert report.passed
        assert all(t.violations == 0 for t in report.sampling)
        assert report.cpl.intact_matches == MAX_SHOTS
        assert sum(t.shots for t in report.sampling) + 2 * report.cpl.shots == (
            6 * MAX_SHOTS)

    def test_sample_records_deterministic(self, lmz_exact):
        final = lmz_exact.snapshots[4].state
        kwargs = dict(
            target="t", constraint_id=1, stage="s",
            records=(("B1", BOB_MEMORY[0]), ("B2", BOB_MEMORY[1]),
                     ("B3", BOB_MEMORY[2])),
            expected_product=1, shots=200, master_seed=21, target_index=1)
        a = sample_records(final, **kwargs)
        b = sample_records(final, **kwargs)
        assert a.outcome_counts == b.outcome_counts
        assert a.violations == 0

    def test_sample_records_zero_shots(self, lmz_exact):
        tally = sample_records(
            lmz_exact.snapshots[4].state, target="t", constraint_id=1,
            stage="s", records=(("B1", BOB_MEMORY[0]),), expected_product=1,
            shots=0, master_seed=0, target_index=1)
        assert tally.outcome_counts == {}
        assert tally.shots == tally.violations == 0
        assert all(m.within_band for m in tally.marginals)

    def test_sample_records_lists_only_drawn_outcomes(self, lmz_exact):
        # One shot of B1 B2 B3, which have four outcomes of probability
        # 1/4: the three that were not drawn get no key.
        tally = sample_records(
            lmz_exact.snapshots[4].state, target="t", constraint_id=1,
            stage="s", records=(("B1", BOB_MEMORY[0]), ("B2", BOB_MEMORY[1]),
                                ("B3", BOB_MEMORY[2])),
            expected_product=1, shots=1, master_seed=0, target_index=1)
        assert list(tally.outcome_counts.values()) == [1]


class TestFlippedSharedState:
    def test_all_four_constraints_fail(self):
        state = prepare_ghz(zero_state(NUM_QUBITS), SYSTEM_QUBITS)
        state = StateVector(NUM_QUBITS, PauliString.single(
            NUM_QUBITS, SYSTEM_QUBITS[0], "Z").apply_to_array(state.amplitudes))
        pms = alice_premeasurements()
        for pm in pms:
            state = premeasure(state, pm)
        bhats = lifted_direct_observables(pms)
        ahats = record_readout_observables()
        table = {
            1: (bhats[0], bhats[1], bhats[2]),
            2: (bhats[0], ahats[1], ahats[2]),
            3: (ahats[0], bhats[1], ahats[2]),
            4: (ahats[0], ahats[1], bhats[2]),
        }
        for cid, observables in table.items():
            expected = CONSTRAINT_SIGNS[cid - 1]
            result = certify_constraint(
                state, observables, expected,
                labels=("p1", "p2", "p3"), constraint_id=cid)
            assert not result.certified
            assert result.expectation == pytest.approx(-expected, abs=1e-12)


@pytest.mark.parametrize("shots", [0, 10000])
def test_lmz_report_peak_memory_stays_below_150_kb(shots):
    # Building run lmz's report and rendering it in both formats peaked at
    # about 175 kB (180 kB at 10^4 shots) on CPython 3.11 while the
    # premeasurement kernels and cpl_check made whole-stack temporaries;
    # with their buffers reused it peaks at about 125 kB (130 kB).
    def build():
        doc = build_run_document("lmz", None, shots, 0, DEFAULT_TOLERANCE)[1]
        doc.to_json()
        render_text(doc)

    build()    # fills the memoised tables first
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e5


class TestCplStandalone:
    @pytest.mark.parametrize("factor", ["X", "Y"])
    def test_observable_acting_on_the_record_fails_first(self, monkeypatch, lmz_exact,
                                                         factor):
        def fail(*args, **kwargs):
            raise AssertionError("no distribution or generator before the check")

        monkeypatch.setattr(scenarios, "child_generator", fail)
        monkeypatch.setattr(scenarios, "_z_readout_distribution", fail)
        system = PauliString.from_map(
            NUM_QUBITS, {SYSTEM_QUBITS[0]: "Y", ALICE_MEMORY[0]: factor})
        harmless = Premeasurement(
            PauliString.single(NUM_QUBITS, SYSTEM_QUBITS[2], "Y"), BOB_MEMORY[2], "bob")
        with pytest.raises(ValueError, match=f"record qubit {ALICE_MEMORY[0]}"):
            cpl_check(lmz_exact.snapshots[1].state, system, "A1", ALICE_MEMORY[0],
                      harmless, shots=100, master_seed=77)

    def test_commuting_disturbance_preserves_agreement(self, lmz_exact):
        stage1 = lmz_exact.snapshots[1].state
        pms = alice_premeasurements()
        harmless = Premeasurement(
            PauliString.single(NUM_QUBITS, SYSTEM_QUBITS[2], "Y"),
            BOB_MEMORY[2], "bob")
        result = cpl_check(
            stage1, pms[0].observable, "A1", ALICE_MEMORY[0], harmless,
            shots=100, master_seed=77)
        assert result.premise_certified
        assert result.intact_expectation == pytest.approx(1.0, abs=1e-12)
        assert result.disturbed_expectation == pytest.approx(1.0, abs=1e-12)
        assert not result.violation_demonstrated
        assert result.disturbed_matches == 100


class TestCdr:
    def test_suite_shape(self, cdr_suite_sampled):
        assert [r.config.experiment_id for r in cdr_suite_sampled] == [1, 2, 3, 4]
        for report in cdr_suite_sampled:
            assert type(report) is CdrReport
            assert report.passed

    def test_certifications(self, cdr_suite_sampled):
        for report, expected in zip(cdr_suite_sampled, CONSTRAINT_SIGNS):
            exp = report.config.experiment_id
            for kind in ("operator", "record"):
                c = constraint(report, exp, kind)
                assert c.expected == expected
                assert c.expectation == pytest.approx(expected, abs=1e-12)
                assert c.certified
            rec = constraint(report, exp, "record")
            assert rec.stage == "bob-direct"

    def test_stage_labels(self, cdr_suite_sampled):
        labels = [[s.label for s in r.snapshots] for r in cdr_suite_sampled]
        assert labels[0] == ["prepared", "alice-complete", "reversed-all", "bob-direct"]
        assert labels[1] == ["prepared", "alice-complete", "reversed-pair-1", "bob-direct"]
        assert labels[2] == ["prepared", "alice-complete", "reversed-pair-2", "bob-direct"]
        assert labels[3] == ["prepared", "alice-complete", "reversed-pair-3", "bob-direct"]

    def test_restoration(self, cdr_suite_sampled):
        full = cdr_suite_sampled[0].restoration
        assert full.kind == "full"
        assert full.fidelity == pytest.approx(1.0, abs=1e-12)
        assert full.restored
        for report in cdr_suite_sampled[1:]:
            mem = report.restoration
            assert mem.kind == "memory"
            assert mem.purity == pytest.approx(1.0, abs=1e-12)
            assert mem.excitation == pytest.approx(0.0, abs=1e-12)
            assert mem.restored

    def test_coexisting_records_match_constraints(self, cdr_suite_sampled):
        want = [
            ["B1", "B2", "B3"],
            ["A2", "A3", "B1"],
            ["A1", "A3", "B2"],
            ["A1", "A2", "B3"],
        ]
        for report, labels in zip(cdr_suite_sampled, want):
            coexist = report.coexisting_records
            assert sorted(coexist.current) == labels
            assert coexist.records_match_constraint

    def test_ledger_statuses(self, cdr_suite_sampled):
        statuses = {f.label: f.status
                    for f in cdr_suite_sampled[0].snapshots[-1].facts}
        assert statuses == {
            "A1": "erased", "A2": "erased", "A3": "erased",
            "B1": "current", "B2": "current", "B3": "current",
        }
        statuses = {f.label: f.status
                    for f in cdr_suite_sampled[1].snapshots[-1].facts}
        assert statuses == {
            "A1": "erased", "A2": "current", "A3": "current", "B1": "current",
        }

    def test_sampled_outcomes_have_expected_parity(self, cdr_suite_sampled):
        for report, expected in zip(cdr_suite_sampled, CONSTRAINT_SIGNS):
            (tally,) = report.sampling
            assert tally.shots == 500
            assert tally.violations == 0
            assert sum(tally.outcome_counts.values()) == 500
            for key in tally.outcome_counts:
                sign = 1 if key.count("-") % 2 == 0 else -1
                assert sign == expected
            assert all(m.within_band for m in tally.marginals)

    def test_deterministic_rerun(self, cdr_suite_sampled):
        again = run_cdr(ScenarioConfig(experiment_id=2, shots=500, master_seed=5))
        command = "run cdr --experiment 2 --shots 500 --seed 5"
        assert (from_scenario(command, again).to_json()
                == from_scenario(command, cdr_suite_sampled[1]).to_json())
        # Each experiment of a suite, which shares one opening, renders the
        # same bytes as the experiment run alone.
        for shots, seed in iter_product((0, 200), (0, 5)):
            suite = run_cdr_suite(shots=shots, master_seed=seed)
            for exp, report in enumerate(suite, 1):
                alone = run_cdr(ScenarioConfig(
                    experiment_id=exp, shots=shots, master_seed=seed))
                command = f"run cdr --experiment {exp} --shots {shots} --seed {seed}"
                shared, single = from_scenario(command, report), from_scenario(command, alone)
                assert shared.to_json() == single.to_json(), (exp, shots, seed)
                assert render_text(shared) == render_text(single), (exp, shots, seed)

    def test_suite_builds_one_opening(self, monkeypatch):
        calls = []
        original = scenarios.prepare_ghz

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(scenarios, "prepare_ghz", counted)
        suite = run_cdr_suite(shots=10, master_seed=1)
        assert len(calls) == 1
        opening = suite[0].snapshots[:2]
        assert [s.label for s in opening] == ["prepared", "alice-complete"]
        for report in suite:
            assert len(report.snapshots) == 4
            assert all(a is b for a, b in zip(report.snapshots[:2], opening))

    @pytest.mark.parametrize("flow, calls", [
        (lambda: run_lmz(ScenarioConfig(shots=10)), 5),
        (lambda: run_cdr_suite(shots=10), 2 + 4 * 2),
    ])
    def test_ledger_once_per_snapshot(self, monkeypatch, flow, calls):
        # Each stage's ledger is derived once per plan: the first flow call
        # derives all 13 (the opening's 2, lmz's 3 and 2 per experiment),
        # and a warm run derives none. Both runs' `calls` distinct snapshots
        # carry facts the plan derived, and the report's final ledger is the
        # last snapshot's facts, not derived again.
        derived = []
        original = scenarios.ledger

        def counted(steps):
            derived.append(original(steps))
            return derived[-1]

        monkeypatch.setattr(scenarios, "ledger", counted)
        cold = flow()
        assert len(derived) == 2 + 3 + 4 * 2
        warm = flow()
        assert len(derived) == 13
        for result in (cold, warm):
            reports = result if isinstance(result, list) else [result]
            snapshots = {id(s): s for report in reports for s in report.snapshots}
            assert len(snapshots) == calls
            assert all(any(s.facts is facts for facts in derived)
                       for s in snapshots.values())
            for report in reports:
                document = from_scenario("run", report)
                assert document.results["ledger"] is report.snapshots[-1].facts

    def test_reversed_state_matches_dense(self, cdr_suite_sampled):
        # experiment 2 reverses pair 1 only; rebuild with dense unitaries
        amps = ghz_amps(NUM_QUBITS, SYSTEM_QUBITS)
        units = [
            premeasure_unitary(
                NUM_QUBITS, op(NUM_QUBITS, {SYSTEM_QUBITS[k]: "Y"}), ALICE_MEMORY[k])
            for k in range(3)]
        for u in units:
            amps = u @ amps
        amps = units[0] @ amps  # self-inverse reversal of pair 1
        np.testing.assert_allclose(
            cdr_suite_sampled[1].snapshots[2].state.amplitudes, amps, atol=1e-12)


# The constraint table, per pair: "B" reads Bob's direct outcome, "A"
# Alice's record. Written here apart from scenarios.CONSTRAINT_PATTERNS.
PATTERNS = ("BBB", "BAA", "ABA", "AAB")


@functools.lru_cache(maxsize=None)
def dense_certified_values():
    """The dense Born value of each product the two flows certify, keyed
    (flow, constraint id, kind), from oracle's dense unitaries alone."""
    n = NUM_QUBITS
    alice = [premeasure_unitary(n, op(n, {SYSTEM_QUBITS[k]: "Y"}), ALICE_MEMORY[k])
             for k in range(3)]
    lifted = [{SYSTEM_QUBITS[k]: "X", ALICE_MEMORY[k]: "X"} for k in range(3)]
    bob = [premeasure_unitary(n, op(n, lifted[k]), BOB_MEMORY[k]) for k in range(3)]
    bob_direct = [premeasure_unitary(n, op(n, {SYSTEM_QUBITS[k]: "X"}), BOB_MEMORY[k])
                  for k in range(3)]
    stage1 = ghz_amps(n, SYSTEM_QUBITS)
    for u in alice:
        stage1 = u @ stage1

    def value(state, factors):
        return expect(state, op(n, factors))

    def readouts(cid):
        return {(BOB_MEMORY if slot == "B" else ALICE_MEMORY)[k]: "Z"
                for k, slot in enumerate(PATTERNS[cid - 1])}

    values = {}
    # lmz: the operator products on the stage-1 state, over Bob's lifted
    # observables; the record products of constraint 1 after Bob's three
    # steps, of 2 after his first, of 3 and 4 after the matching step only.
    for cid, pattern in enumerate(PATTERNS, 1):
        factors = {}
        for k, slot in enumerate(pattern):
            factors.update(lifted[k] if slot == "B" else {ALICE_MEMORY[k]: "Z"})
        values["lmz", cid, "operator"] = value(stage1, factors)
    after_first = bob[0] @ stage1
    values["lmz", 1, "record"] = value(bob[2] @ (bob[1] @ after_first), readouts(1))
    values["lmz", 2, "record"] = value(after_first, readouts(2))
    for cid in (3, 4):
        values["lmz", cid, "record"] = value(bob[cid - 2] @ stage1, readouts(cid))
    # cdr: reverse the B pairs' records, read X on the freed system qubits
    # and Z on the kept records, then let Bob premeasure the freed qubits.
    for cid, pattern in enumerate(PATTERNS, 1):
        state, factors = stage1, {}
        for k, slot in enumerate(pattern):
            if slot == "B":
                state = alice[k] @ state
                factors[SYSTEM_QUBITS[k]] = "X"
            else:
                factors[ALICE_MEMORY[k]] = "Z"
        values["cdr", cid, "operator"] = value(state, factors)
        for k, slot in enumerate(pattern):
            if slot == "B":
                state = bob_direct[k] @ state
        values["cdr", cid, "record"] = value(state, readouts(cid))
    return values


class TestFlagSpace:
    """Both flows PASS across the flag space, with exact products, at every
    tolerance ScenarioConfig accepts up to 0.49."""

    @given(shots=st.integers(0, 10**6), seed=st.integers(0, 2**64 - 1),
           tolerance=st.floats(MIN_TOLERANCE, 0.49))
    @settings(max_examples=40, deadline=None)
    def test_both_flows_pass_with_exact_products(self, shots, seed, tolerance):
        lmz = run_lmz(ScenarioConfig(
            shots=shots, master_seed=seed, tolerance=tolerance))
        suite = run_cdr_suite(shots=shots, master_seed=seed, tolerance=tolerance)
        dense = dense_certified_values()
        for flow, reports in (("lmz", [lmz]), ("cdr", suite)):
            for report in reports:
                assert report.passed
                records = [c for c in report.constraints if c.kind == "record"]
                assert len(report.sampling) == (len(records) if shots else 0)
                for tally in report.sampling:
                    assert (tally.shots, tally.violations) == (shots, 0)
                for c in report.constraints:
                    exact = dense[flow, c.constraint_id, c.kind]
                    assert abs(c.expectation - exact) <= 1e-12
                    assert exact == pytest.approx(
                        EXPECTED_SIGNS[c.constraint_id - 1], abs=1e-12)
        assert len(suite) == 4 and len(lmz.constraints) == 8


# The 14 commands of perfbench's `exact` workload, at one seed.
EXACT_COMMANDS = [
    [*command, "--shots", "0", "--format", fmt] if command[0] == "run"
    else [*command, "--format", fmt]
    for command in (["run", "lmz"],
                    *(["run", "cdr", "--experiment", e] for e in ("all", "1", "2", "3", "4")),
                    ["check-assignments", "--builtin", "ghz"])
    for fmt in ("json", "text")]


def printed(argv, capsys):
    assert main(argv) == 0, argv
    return capsys.readouterr().out


def frozen_values(value):
    """Every value reachable from `value` through tuples and dataclass
    fields, failing on a dataclass that is not frozen."""
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from frozen_values(item)
    elif dataclasses.is_dataclass(value):
        assert type(value).__dataclass_params__.frozen, type(value)
        for f in dataclasses.fields(value):
            yield from frozen_values(getattr(value, f.name))


class TestPlan:
    """The symbolic side of both flows is derived once per process, from the
    constraint table, and no run's report shares a mutable part of it."""

    def test_built_by_the_first_flow_call_only(self, capsys):
        # Importing every module builds nothing, and neither does
        # check-assignments.
        package = str(Path(scenarios.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import relfacts.cli, relfacts.scenarios as s, relfacts.verify; "
                "assert s._PLAN is None and s.__file__.startswith(sys.argv[1])")
        assert subprocess.run([sys.executable, "-c", code, package]).returncode == 0
        printed(["check-assignments", "--builtin", "ghz"], capsys)
        assert scenarios._PLAN is None
        plan = scenarios._plan()
        run_lmz(ScenarioConfig())
        run_cdr_suite()
        run_cdr(ScenarioConfig(experiment_id=3))
        assert scenarios._PLAN is plan
        scenarios.clear_plan()
        assert scenarios._PLAN is None

    def test_holds_only_tuples_and_frozen_dataclasses(self):
        plan = scenarios._plan()
        kinds = {type(v) for v in frozen_values(plan)}
        assert kinds <= {
            tuple, str, int, bool, type(None), PauliString, Premeasurement,
            RelativeFact, CoexistingRecords, SamePairAnticommute, scenarios._Plan,
            scenarios._LmzPlan, scenarios._Experiment, scenarios._Stage,
            scenarios._Product}

    def test_keyed_on_the_table_values(self, monkeypatch):
        plan = scenarios._plan()
        # An equal table is the same key, whatever tuple holds it.
        monkeypatch.setattr(scenarios, "CONSTRAINT_SIGNS", tuple(list(CONSTRAINT_SIGNS)))
        assert scenarios._plan() is plan
        monkeypatch.setattr(scenarios, "CONSTRAINT_SIGNS", (1, 1, -1, -1))
        flipped = scenarios._plan()
        assert flipped.key == (scenarios.CONSTRAINT_PATTERNS, (1, 1, -1, -1))
        assert [r.expected for r in flipped.records] == [1, 1, -1, -1]
        assert not run_lmz(ScenarioConfig()).passed
        monkeypatch.setattr(scenarios, "CONSTRAINT_SIGNS", CONSTRAINT_SIGNS)
        assert scenarios._plan() is not flipped
        assert scenarios._plan().key == plan.key
        assert run_lmz(ScenarioConfig()).passed

    def test_warm_plan_renders_the_bytes_of_a_fresh_one(self, capsys):
        fresh = []
        for argv in EXACT_COMMANDS:
            scenarios.clear_plan()
            fresh.append(printed(argv, capsys))
        # Each command runs twice per order, the second time after every
        # other command has run on the same plan.
        for order in (range(len(EXACT_COMMANDS)), reversed(range(len(EXACT_COMMANDS)))):
            scenarios.clear_plan()
            order = list(order)
            for i in order + order:
                assert printed(EXACT_COMMANDS[i], capsys) == fresh[i], EXACT_COMMANDS[i]

    def test_editing_a_report_leaves_the_next_run_unchanged(self):
        first = build_run_document("lmz", None, 200, 3, DEFAULT_TOLERANCE)
        suite = build_run_document("cdr", "all", 200, 3, DEFAULT_TOLERANCE)
        rendered = [(doc.to_json(), render_text(doc)) for _, doc in (first, suite)]
        lmz = first[0]
        survey = lmz.commutation
        for table in (survey.product_labels, survey.product_pairwise_commute,
                      survey.triples_commute, lmz.disturbed_diagnostic.record_statuses):
            table[next(iter(table))] = "edited"
            table["extra"] = False
        for report in [lmz, *suite[0]]:
            for tally in report.sampling:
                tally.outcome_counts.clear()
        again = (build_run_document("lmz", None, 200, 3, DEFAULT_TOLERANCE),
                 build_run_document("cdr", "all", 200, 3, DEFAULT_TOLERANCE))
        assert [(doc.to_json(), render_text(doc)) for _, doc in again] == rendered
