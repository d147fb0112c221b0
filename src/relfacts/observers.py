"""Agent memories as qubits: premeasurement, reversal, lifting, and the
ledger of relative facts.

A premeasurement entangles an observable's eigenvalue with a fresh memory
qubit instead of collapsing it: U = P_plus x I_m + P_minus x X_m, with
P_pm = (1 +/- O)/2. U is Hermitian, unitary, and self-inverse, so the same
operation both writes and unwrites a record. After premeasuring onto a
cleared memory, O x Z_m has expectation exactly +1: the record tracks the
observable perfectly until some later operation fails to commute with it.

The array kernels below take a (..., 2^n) stack of amplitude rows and act
on each row of the last axis, so a batch of states costs one gather per
step; premeasure and reverse wrap them for a single StateVector.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ProtocolError
from .pauli import PauliString, _apply_tables, commutes
from .statevector import PHYS_TOL, StateVector, _masked_indices

FACT_STATUSES = ("current", "disturbed", "erased")


@dataclass(frozen=True)
class Premeasurement:
    """A unitary record-writing step: `observable` is copied onto `memory`.

    The observable must not act on its own memory qubit, and must act
    non-trivially somewhere.
    """

    observable: PauliString
    memory: int
    owner: str

    def __post_init__(self):
        if self.observable.is_identity():
            raise ValueError("premeasured observable must act non-trivially")
        if not 0 <= self.memory < self.observable.num_qubits:
            raise ValueError(f"memory qubit {self.memory} out of range")
        if self.memory in self.observable.support():
            raise ValueError(
                f"memory qubit {self.memory} lies inside the observable's support")


def _premeasure_array(amps: np.ndarray, pm: Premeasurement) -> np.ndarray:
    """(P_plus + X_m P_minus) applied to each row of a (..., 2^n) stack of
    raw amplitudes."""
    o_amps = pm.observable.apply_to_array(amps)
    plus = (amps + o_amps) / 2.0
    minus = (amps - o_amps) / 2.0
    # X on the memory qubit as a gather: the sources of +X_m, whose phases are all 1.
    flipped, _ = _apply_tables(pm.observable.num_qubits, 1 << pm.memory, 0, 1)
    plus += minus.T[flipped].T
    return plus


def _require_cleared_memory(amps: np.ndarray, pm: Premeasurement,
                            weight: float | np.ndarray = 1.0) -> None:
    """Raise ProtocolError unless the memory qubit reads 0 with certainty in
    every row of a (..., 2^n) stack of amplitudes. `weight` is the squared
    norm of `amps`, one value or one per row, so that unnormalized branches
    of an outcome tree are judged by their conditional probability."""
    bit = 1 << pm.memory
    excited = _masked_indices(pm.observable.num_qubits, bit, bit)
    # ndarray.sum, not np.sum, whose Python wrapper costs as much again on
    # one state; and Python's any, not a numpy reduction, which would add a
    # transient allocation at the flows' memory peak.
    mass = (np.abs(amps.T[excited].T) ** 2).sum(axis=-1)
    if any(np.ravel(mass > PHYS_TOL * weight)):
        raise ProtocolError(
            f"memory qubit {pm.memory} is not in |0>; "
            "premeasurement needs a cleared memory")


def premeasure(state: StateVector, pm: Premeasurement) -> StateVector:
    """Write the record: requires the memory qubit to read 0 with certainty."""
    if pm.observable.num_qubits != state.num_qubits:
        raise ValueError(
            f"premeasurement on {pm.observable.num_qubits} qubits, "
            f"state on {state.num_qubits}")
    _require_cleared_memory(state.amplitudes, pm)
    return StateVector(state.num_qubits, _premeasure_array(state.amplitudes, pm))


def reverse(state: StateVector, pm: Premeasurement) -> StateVector:
    """Undo a premeasurement. The unitary is self-inverse, so this is the
    same operation without the cleared-memory precondition."""
    if pm.observable.num_qubits != state.num_qubits:
        raise ValueError(
            f"premeasurement on {pm.observable.num_qubits} qubits, "
            f"state on {state.num_qubits}")
    return StateVector(state.num_qubits, _premeasure_array(state.amplitudes, pm))


def lift(obs: PauliString, pm: Premeasurement) -> PauliString:
    """Conjugate `obs` through the premeasurement unitary: U obs U.

    This is how a later agent addresses a pre-record observable after the
    record exists. A string commuting with the premeasured observable is
    unchanged; an anticommuting string picks up X on the memory qubit, so
    strings map to strings. `obs` must not touch the memory qubit.
    """
    if obs.num_qubits != pm.observable.num_qubits:
        raise ValueError(
            f"observable on {obs.num_qubits} qubits, "
            f"premeasurement on {pm.observable.num_qubits}")
    if pm.memory in obs.support():
        raise ValueError(
            f"cannot lift an observable that already acts on memory qubit {pm.memory}")
    if commutes(obs, pm.observable):
        return obs
    factors = list(obs.factors)
    factors[pm.memory] = "X"
    return PauliString(obs.num_qubits, tuple(factors), obs.sign)


@dataclass
class RelativeFact:
    """One recorded outcome, relative to the owner that premeasured it.

    `status` tracks whether the record still reflects the original
    premeasurement: 'current' until an operation that fails to commute with
    the record observable runs ('disturbed'), or the premeasurement is
    reversed ('erased').
    """

    owner: str
    label: str
    qubit: int
    stage: str
    status: str = "current"

    def __post_init__(self):
        if self.status not in FACT_STATUSES:
            raise ValueError(f"unknown fact status {self.status!r}")


class Ledger:
    """Ordered collection of relative facts with disturbance tracking."""

    def __init__(self):
        self.facts = []

    def add(self, owner: str, label: str, qubit: int, stage: str) -> RelativeFact:
        if any(f.label == label for f in self.facts):
            raise ValueError(f"duplicate fact label {label!r}")
        fact = RelativeFact(owner=owner, label=label, qubit=qubit, stage=stage)
        self.facts.append(fact)
        return fact

    def get(self, label: str) -> RelativeFact:
        for f in self.facts:
            if f.label == label:
                return f
        raise KeyError(label)

    def current(self) -> list:
        return [f for f in self.facts if f.status == "current"]

    def mark_disturbed(self, applied: PauliString, num_qubits: int) -> list:
        """Downgrade every current fact whose record observable fails to
        commute with the observable being measured or premeasured. Returns
        the facts that changed status."""
        changed = []
        for fact in self.facts:
            if fact.status != "current":
                continue
            record = PauliString.single(num_qubits, fact.qubit, "Z")
            if not commutes(record, applied):
                fact.status = "disturbed"
                changed.append(fact)
        return changed

    def mark_erased(self, label: str) -> RelativeFact:
        fact = self.get(label)
        fact.status = "erased"
        return fact

    def snapshot(self) -> tuple:
        """Immutable copies of all facts, for stage records."""
        return tuple(replace(f) for f in self.facts)


@dataclass(frozen=True)
class StageSnapshot:
    """The full state and ledger contents at one protocol stage."""

    index: int
    label: str
    state: StateVector
    facts: tuple
