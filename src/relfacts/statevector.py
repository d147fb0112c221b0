"""Dense statevector simulation.

States are immutable: every operation returns a fresh StateVector and never
mutates amplitude arrays in place. Basis-state index bit q is the value of
qubit q (qubit 0 = least significant bit). Measurement lives in the Z
readout distribution of the scenarios module, which gives every outcome's
exact probability instead of collapsing one state.

Tolerances: PHYS_TOL bounds physically-meaningful drift (norms, realness of
expectations); ALG_TOL bounds pure floating-point noise (outcome
probabilities treated as exactly 0).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import InternalConsistencyError, ProtocolError, ResourceError
from .pauli import PauliString, _register_tables

PHYS_TOL = 1e-10
ALG_TOL = 1e-12
MAX_QUBITS = 24


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on num_qubits qubits."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ResourceError(
                f"qubit count {self.num_qubits} outside the supported range "
                f"1..{MAX_QUBITS}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"amplitude array of shape {amps.shape} does not match "
                f"{self.num_qubits} qubits")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > PHYS_TOL:
            raise ValueError(f"state is not normalized: |psi| = {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probability_of_bit(self, qubit: int) -> float:
        """Probability that a Z measurement of `qubit` yields 1."""
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        excited = _masked_indices(self.num_qubits, 1 << qubit, 1 << qubit)
        return float(np.sum(np.abs(self.amplitudes[excited]) ** 2))


@_register_tables
def _masked_indices(num_qubits: int, mask: int, value: int) -> np.ndarray:
    """The basis indices i of a register with i & mask == value, ascending."""
    return np.flatnonzero((np.arange(1 << num_qubits) & mask) == value)


def zero_state(num_qubits: int) -> StateVector:
    """The all-zeros computational basis state |0...0>."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ResourceError(
            f"qubit count {num_qubits} outside the supported range 1..{MAX_QUBITS}")
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def prepare_ghz(state: StateVector, qubits) -> StateVector:
    """Entangle the listed qubits into (|0..0> + |1..1>)/sqrt(2).

    Precondition: each listed qubit reads 0 with certainty, which guarantees
    the register factorizes as |0..0> on those qubits. Each amplitude with
    those bits clear is then split evenly onto itself and the index with
    all of them set, which is what H on qubits[0] followed by CX fanning
    out to the rest does.
    """
    qubits = tuple(qubits)
    if len(qubits) < 2:
        raise ValueError("a shared state needs at least 2 qubits")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubits: {qubits}")
    for q in qubits:
        if state.probability_of_bit(q) > PHYS_TOL:
            raise ProtocolError(
                f"qubit {q} is not in |0>; preparation requires a cleared register")
    mask = sum(1 << q for q in qubits)
    amps = state.amplitudes
    cleared = _masked_indices(state.num_qubits, mask, 0)
    out = np.zeros_like(amps)
    out[cleared] = amps[cleared] * (1.0 / sqrt(2.0))
    out[_masked_indices(state.num_qubits, mask, mask)] = out[cleared]
    return StateVector(state.num_qubits, out)


def expectation(state: StateVector, op: PauliString) -> float:
    """<psi| P |psi> for a Pauli string. Guaranteed real and in [-1, 1] up
    to PHYS_TOL; violations raise InternalConsistencyError."""
    if op.num_qubits != state.num_qubits:
        raise ValueError(
            f"operator on {op.num_qubits} qubits, state on {state.num_qubits}")
    val = complex(np.vdot(state.amplitudes, op.apply_to_array(state.amplitudes)))
    if abs(val.imag) > PHYS_TOL:
        raise InternalConsistencyError(
            f"expectation of a Hermitian observable came out complex: {val!r}")
    if abs(val.real) > 1.0 + PHYS_TOL:
        raise InternalConsistencyError(
            f"expectation {val.real!r} outside [-1, 1] for an involution")
    return float(val.real)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 between pure states."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"states on different registers: {a.num_qubits} vs {b.num_qubits}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
