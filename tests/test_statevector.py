"""State preparation, Born-rule measurement, expectations and fidelity.

Measurement is the Z readout distribution of the scenarios module (one
weighted bincount); the tests here pin its single-readout behaviour.
"""
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import ghz_amps, op, random_state
from relfacts.errors import ProtocolError, ResourceError
from relfacts.pauli import PauliString
from relfacts.scenarios import _draw_outcome_counts, _z_readout_distribution
from relfacts.statevector import (
    StateVector,
    expectation,
    fidelity,
    prepare_ghz,
    zero_state,
)

INV_SQRT2 = 1 / sqrt(2.0)


def sv(amps):
    amps = np.asarray(amps, dtype=complex)
    return StateVector(int(np.log2(amps.size)), amps)


class TestStateVector:
    def test_zero_state(self):
        state = zero_state(3)
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1
        assert state.norm() == pytest.approx(1.0)

    def test_zero_state_guards(self):
        with pytest.raises(ResourceError):
            zero_state(0)
        with pytest.raises(ResourceError):
            zero_state(25)
        zero_state(24)

    def test_validation(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan), complex(np.inf, 0)])
    def test_non_finite_norm_is_refused(self, bad):
        # A NaN norm compares false with everything, so it must fail the
        # check at construction, not later in a readout distribution.
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array([bad, 0]))
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(2, np.array([0.5, 0.5, 0.5, bad]))

    def test_amplitudes_write_protected(self):
        state = zero_state(2)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_probability_of_bit(self):
        state = sv([0, 0, 1, 0])  # |10>: qubit1 = 1, qubit0 = 0
        assert state.probability_of_bit(0) == pytest.approx(0.0)
        assert state.probability_of_bit(1) == pytest.approx(1.0)


class TestPrepareGhz:
    def test_three_qubit_amplitudes(self):
        state = prepare_ghz(zero_state(3), (0, 1, 2))
        np.testing.assert_allclose(state.amplitudes, ghz_amps(3, (0, 1, 2)), atol=1e-15)

    def test_embedded_subset(self):
        state = prepare_ghz(zero_state(4), (1, 3))
        np.testing.assert_allclose(state.amplitudes, ghz_amps(4, (1, 3)), atol=1e-15)

    def test_correlations(self):
        state = prepare_ghz(zero_state(3), (0, 1, 2))
        assert expectation(state, PauliString.from_label("XXX")) == pytest.approx(1.0)
        for label in ("XYY", "YXY", "YYX"):
            assert expectation(state, PauliString.from_label(label)) == pytest.approx(-1.0)
        assert expectation(state, PauliString.from_label("ZII")) == pytest.approx(0.0)
        assert expectation(state, PauliString.from_label("ZZI")) == pytest.approx(1.0)

    def test_preconditions(self):
        dirty = sv([0, 0, 1, 0, 0, 0, 0, 0])  # qubit 1 excited
        with pytest.raises(ProtocolError):
            prepare_ghz(dirty, (0, 1, 2))
        with pytest.raises(ValueError):
            prepare_ghz(zero_state(3), (0, 0, 1))
        with pytest.raises(ValueError):
            prepare_ghz(zero_state(3), (2,))


class TestExpectationAndApply:
    def test_apply_to_array_matches_dense(self):
        rng = np.random.default_rng(99)
        state = StateVector(3, random_state(rng, 3))
        p = PauliString.from_label("XZY", sign=-1)
        out = p.apply_to_array(state.amplitudes)
        np.testing.assert_allclose(
            out, -op(3, {0: "X", 1: "Z", 2: "Y"}) @ state.amplitudes,
            atol=1e-12)

    def test_expectation_register_mismatch(self):
        with pytest.raises(ValueError):
            expectation(zero_state(2), PauliString.from_label("X"))
        with pytest.raises(ValueError):
            PauliString.from_label("X").apply_to_array(zero_state(2).amplitudes)


class TestMeasure:
    def test_born_frequencies(self):
        dist = _z_readout_distribution(sv([INV_SQRT2, INV_SQRT2]).amplitudes, (0,))
        counts = dict(_draw_outcome_counts(dist, 400, np.random.default_rng(17)))
        assert 140 <= counts[(1,)] <= 260  # 5 sigma around 200
        assert counts[(1,)] + counts[(-1,)] == 400

    def test_determinism_same_seed(self):
        amps = sv([INV_SQRT2, INV_SQRT2, 0, 0]).amplitudes
        dist = _z_readout_distribution(amps, (0,))
        a = _draw_outcome_counts(dist, 20, np.random.default_rng(3))
        b = _draw_outcome_counts(dist, 20, np.random.default_rng(3))
        assert a == b

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_branch_probabilities_match_expectation(self, seed):
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(1, 4))
        qubit = int(rng.integers(num_qubits))
        state = StateVector(num_qubits, random_state(rng, num_qubits))
        dist = dict(_z_readout_distribution(state.amplitudes, (qubit,)))
        p_plus = dist.get((1,), 0.0)
        z = PauliString.single(num_qubits, qubit, "Z")
        assert expectation(state, z) == pytest.approx(2 * p_plus - 1, abs=1e-10)

    def test_repeat_readout_agrees(self):
        dist = dict(_z_readout_distribution(sv([INV_SQRT2, INV_SQRT2]).amplitudes, (0, 0)))
        assert set(dist) == {(1, 1), (-1, -1)}
        assert dist[(1, 1)] == pytest.approx(0.5, abs=1e-12)


class TestFidelityAndDensity:
    def test_fidelity_examples(self):
        plus = sv([INV_SQRT2, INV_SQRT2])
        one = sv([0, 1])
        assert fidelity(zero_state(1), zero_state(1)) == pytest.approx(1.0)
        assert fidelity(zero_state(1), one) == pytest.approx(0.0)
        assert fidelity(zero_state(1), plus) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            fidelity(zero_state(1), zero_state(2))
