"""Record-writing unitaries, reversal, lifting, and the fact ledger."""
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import op, op_label, premeasure_unitary, random_stack, random_state, same_bits
from relfacts.errors import ProtocolError
from relfacts.observers import (
    Ledger,
    Premeasurement,
    _premeasure_array,
    _require_cleared_memory,
    lift,
    premeasure,
    reverse,
)
from relfacts.pauli import PauliString, commutes
from relfacts.scenarios import _sequential_outcome_distribution
from relfacts.statevector import PHYS_TOL, StateVector, expectation, fidelity, zero_state

INV_SQRT2 = 1 / sqrt(2.0)


def plus_zero():
    """|+> on qubit 0, |0> on qubit 1."""
    return StateVector(2, np.array([INV_SQRT2, INV_SQRT2, 0, 0], dtype=complex))


def pm_z(num_qubits=2, system=0, memory=1):
    return Premeasurement(
        PauliString.single(num_qubits, system, "Z"), memory, "friend")


class TestPremeasurementChecks:
    def test_memory_inside_support_rejected(self):
        with pytest.raises(ValueError):
            Premeasurement(PauliString.from_label("ZZ"), 1, "friend")

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            Premeasurement(PauliString.identity(2), 1, "friend")

    def test_memory_out_of_range(self):
        with pytest.raises(ValueError):
            Premeasurement(PauliString.from_label("ZI"), 5, "friend")



class TestPremeasure:
    def test_plus_state_becomes_bell_pair(self):
        out = premeasure(plus_zero(), pm_z())
        np.testing.assert_allclose(
            out.amplitudes, [INV_SQRT2, 0.0, 0.0, INV_SQRT2], atol=1e-15)

    def test_requires_cleared_memory(self):
        once = premeasure(plus_zero(), pm_z())
        with pytest.raises(ProtocolError):
            premeasure(once, pm_z())

    def test_register_mismatch(self):
        with pytest.raises(ValueError):
            premeasure(zero_state(3), pm_z(num_qubits=2))

    def test_matches_dense_unitary(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            num_qubits = int(rng.integers(2, 5))
            memory = int(rng.integers(0, num_qubits))
            others = [q for q in range(num_qubits) if q != memory]
            support = [q for q in others if rng.random() < 0.7] or [others[0]]
            obs = PauliString.from_map(
                num_qubits,
                {q: str(rng.choice(list("XYZ"))) for q in support})
            pm = Premeasurement(obs, memory, "friend")
            amps = random_state(rng, num_qubits, zero_qubits=(memory,))
            u = premeasure_unitary(num_qubits, op_label("".join(obs.factors)), memory)
            out = premeasure(StateVector(num_qubits, amps), pm)
            np.testing.assert_allclose(out.amplitudes, u @ amps, atol=1e-12)

    def test_record_agrees_with_observable(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            amps = random_state(rng, 4, zero_qubits=(3,))
            state = StateVector(4, amps)
            support = sorted(rng.choice(3, size=int(rng.integers(1, 4)), replace=False))
            obs = PauliString.from_map(
                4, {int(q): str(rng.choice(list("XYZ"))) for q in support})
            pm = Premeasurement(obs, 3, "friend")
            before = expectation(state, obs)
            out = premeasure(state, pm)
            record = PauliString.single(4, pm.memory, "Z")
            pair = obs * record
            assert expectation(out, pair) == pytest.approx(1.0, abs=1e-10)
            # memory readout statistics copy the premeasured observable
            assert expectation(out, record) == pytest.approx(before, abs=1e-10)


class TestReverse:
    def test_reverse_undoes_premeasure_100_cases(self):
        rng = np.random.default_rng(661)
        for _ in range(100):
            amps = random_state(rng, 4, zero_qubits=(3,))
            state = StateVector(4, amps)
            support = sorted(rng.choice(3, size=int(rng.integers(1, 4)), replace=False))
            obs = PauliString.from_map(
                4, {int(q): str(rng.choice(list("XYZ"))) for q in support})
            pm = Premeasurement(obs, 3, "friend")
            back = reverse(premeasure(state, pm), pm)
            assert fidelity(back, state) >= 1.0 - 1e-12

    def test_reverse_after_collapse_loses_the_branch(self):
        state = plus_zero()
        pm = pm_z()
        recorded = premeasure(state, pm)
        np.testing.assert_allclose(
            recorded.amplitudes, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)
        # a readout of the record collapses the Bell pair onto |00> or |11>
        for collapsed in ([1, 0, 0, 0], [0, 0, 0, 1]):
            back = reverse(StateVector(2, np.array(collapsed, dtype=complex)), pm)
            # value frozen from the independent dense computation
            assert fidelity(back, state) == pytest.approx(0.5, abs=1e-12)

    def test_reverse_allows_dirty_memory(self):
        # collapse leaves the memory entangled or excited; reversal still runs
        pm = pm_z()
        recorded = premeasure(plus_zero(), pm)
        reverse(recorded, pm)


def random_premeasurement(rng, num_qubits):
    """A signed, non-identity string premeasured onto a qubit outside it."""
    memory = int(rng.integers(0, num_qubits))
    factors = list(rng.choice(list("IXYZ"), size=num_qubits))
    factors[memory] = "I"
    if all(f == "I" for f in factors):
        factors[(memory + 1) % num_qubits] = "Z"
    return Premeasurement(
        PauliString(num_qubits, tuple(factors), int(rng.choice([1, -1]))), memory, "friend")


class TestStackedKernels:
    @given(st.integers(2, 6), st.integers(0, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_each_row_equals_the_single_state_call(self, num_qubits, rows, seed):
        rng = np.random.default_rng(seed)
        pm = random_premeasurement(rng, num_qubits)
        stack = random_stack(rng, rows, num_qubits)
        for layout in (stack, np.asfortranarray(stack)):
            out = _premeasure_array(layout, pm)
            assert out.shape == stack.shape
            for r in range(rows):
                assert same_bits(out[r], _premeasure_array(stack[r], pm))

    @given(st.integers(2, 6), st.integers(0, 5), st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_cleared_memory_raises_iff_some_row_is_excited(self, num_qubits, rows,
                                                           per_row_weight, seed):
        # Each row's excited mass is 0, 1e-12 or 1e-6 of its weight: two
        # orders of magnitude either side of the PHYS_TOL bound.
        rng = np.random.default_rng(seed)
        pm = random_premeasurement(rng, num_qubits)
        excited = (np.arange(1 << num_qubits) >> pm.memory) & 1 == 1
        levels = rng.choice([0.0, 1e-12, 1e-6], size=rows)
        stack = np.zeros((rows, 1 << num_qubits), dtype=complex)
        for r, level in enumerate(levels):
            ground = random_state(rng, num_qubits, zero_qubits=(pm.memory,))
            lifted = random_state(rng, num_qubits) * excited
            lifted /= np.linalg.norm(lifted)
            stack[r] = rng.uniform(0.5, 2.0) * (
                np.sqrt(1.0 - level) * ground + np.sqrt(level) * lifted)
        weights = np.array([np.vdot(row, row).real for row in stack])
        weight = weights if per_row_weight else 1.0
        masses = [sum(abs(a) ** 2 for a in row[excited]) for row in stack]
        should_raise = any(m > PHYS_TOL * w for m, w in zip(masses, np.broadcast_to(weight, rows)))
        assert should_raise == any(levels > PHYS_TOL)
        if should_raise:
            with pytest.raises(ProtocolError, match="not in |0>"):
                _require_cleared_memory(stack, pm, weight)
        else:
            _require_cleared_memory(stack, pm, weight)

    @pytest.mark.parametrize("shape", [(), (4,), (3, 4), (8, 2)])
    def test_wrong_last_axis_raises(self, shape):
        pm = Premeasurement(PauliString.from_label("XZI"), 2, "friend")
        with pytest.raises(ValueError, match="does not match 3 qubits"):
            _premeasure_array(np.zeros(shape, dtype=complex), pm)


class TestLift:
    @pytest.mark.parametrize("label,expected_label", [
        ("ZI", "+ZI"),   # commutes with premeasured Z: unchanged
        ("XI", "+XX"),   # anticommutes: picks up X on the memory
        ("YI", "+YX"),
    ])
    def test_lift_through_z_record(self, label, expected_label):
        pm = pm_z()
        lifted = lift(PauliString.from_label(label), pm)
        assert lifted.label() == expected_label

    def test_lift_matches_dense_conjugation(self):
        num_qubits = 3
        obs_z = PauliString.from_map(num_qubits, {0: "Y"})
        pm = Premeasurement(obs_z, 2, "friend")
        u = premeasure_unitary(num_qubits, op(num_qubits, {0: "Y"}), 2)
        cases = [
            PauliString.from_map(num_qubits, {0: "Y"}),
            PauliString.from_map(num_qubits, {0: "X"}),
            PauliString.from_map(num_qubits, {0: "Z", 1: "X"}),
            PauliString.from_map(num_qubits, {1: "Z"}),
        ]
        for obs in cases:
            lifted = lift(obs, pm)
            np.testing.assert_allclose(
                lifted.dense_matrix(), u @ obs.dense_matrix() @ u, atol=1e-12)

    def test_lifted_observable_anticommutes_with_record(self):
        pm = pm_z()
        lifted = lift(PauliString.from_label("XI"), pm)
        assert not commutes(lifted, PauliString.single(2, pm.memory, "Z"))

    def test_lift_rejections(self):
        pm = pm_z()
        with pytest.raises(ValueError):
            lift(PauliString.from_label("IZ"), pm)  # touches the memory
        with pytest.raises(ValueError):
            lift(PauliString.from_label("X"), pm)  # register mismatch


class TestLedger:
    def test_add_get_and_duplicates(self):
        ledger = Ledger()
        fact = ledger.add("alice", "A1", 3, stage="s")
        assert ledger.get("A1") is fact
        with pytest.raises(ValueError):
            ledger.add("bob", "A1", 6, stage="s")
        with pytest.raises(KeyError):
            ledger.get("missing")

    def test_mark_disturbed_follows_commutation(self):
        ledger = Ledger()
        ledger.add("alice", "A1", 0, stage="s")
        ledger.add("alice", "A2", 1, stage="s")
        changed = ledger.mark_disturbed(PauliString.from_label("XI"), 2)
        assert [f.label for f in changed] == ["A1"]
        assert ledger.get("A1").status == "disturbed"
        assert ledger.get("A2").status == "current"
        # a commuting operation leaves records alone
        assert ledger.mark_disturbed(PauliString.from_label("ZZ"), 2) == []
        # already-disturbed facts are not re-reported
        assert ledger.mark_disturbed(PauliString.from_label("XX"), 2) != []
        assert ledger.mark_disturbed(PauliString.from_label("XX"), 2) == []

    def test_snapshot_is_immutable_copy(self):
        ledger = Ledger()
        ledger.add("alice", "A1", 0, stage="s")
        snap = ledger.snapshot()
        ledger.mark_disturbed(PauliString.from_label("X"), 1)
        assert snap[0].status == "current"
        assert ledger.get("A1").status == "disturbed"

    def test_current_listing(self):
        ledger = Ledger()
        ledger.add("alice", "A1", 0, stage="s")
        ledger.add("alice", "A2", 1, stage="s")
        ledger.mark_erased("A2")
        assert [f.label for f in ledger.current()] == ["A1"]


class TestReadout:
    """Memory readouts through the outcome tree: |0> carries +1, |1> -1."""

    def test_zero_reads_plus_one(self):
        dist = _sequential_outcome_distribution(
            zero_state(2).amplitudes, (PauliString.single(2, pm_z().memory, "Z"),))
        assert dist == [((1,), pytest.approx(1.0))]

    def test_excited_reads_minus_one(self):
        excited = np.array([0, 0, 1, 0], dtype=complex)  # memory qubit 1 set
        dist = _sequential_outcome_distribution(
            excited, (PauliString.single(2, pm_z().memory, "Z"),))
        assert dist == [((-1,), pytest.approx(1.0))]

    def test_repeatability(self):
        pm = pm_z()
        recorded = premeasure(plus_zero(), pm)
        record = PauliString.single(2, pm.memory, "Z")
        dist = dict(_sequential_outcome_distribution(
            recorded.amplitudes, (record, record)))
        assert set(dist) == {(1, 1), (-1, -1)}
        assert dist[(1, 1)] == pytest.approx(0.5, abs=1e-12)
