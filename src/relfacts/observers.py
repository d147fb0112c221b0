"""Agent memories as qubits: premeasurement, reversal, lifting, and the
ledger of relative facts derived from the record steps.

A premeasurement entangles an observable's eigenvalue with a fresh memory
qubit instead of collapsing it: U = P_plus x I_m + P_minus x X_m, with
P_pm = (1 +/- O)/2. U is Hermitian, unitary, and self-inverse, so the same
operation both writes and unwrites a record. After premeasuring onto a
cleared memory, O x Z_m has expectation exactly +1: the record tracks the
observable perfectly until some later operation fails to commute with it.

A record's status follows from the steps applied after it alone, so
`ledger` derives every fact from the record steps a flow applied.

The array kernels below take a (..., 2^n) stack of amplitude rows and act
on each row of the last axis, so a batch of states costs one gather per
step; premeasure and reverse wrap them for a single StateVector.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ProtocolError
from .pauli import PauliString, _apply_tables, commutes
from .statevector import PHYS_TOL, StateVector, _masked_indices

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
    raw amplitudes: (a + Oa)/2 + X_m (a - Oa)/2, bit for bit.

    The minus branch is written over Oa, and each branch is divided by 2.0
    on its own: halving once after the sum, or multiplying by 0.5, can
    change the sign of a zero, because numpy's complex divide and complex
    multiply treat signed zeros differently.
    """
    o = pm.observable.apply_to_array(amps)
    plus = amps + o
    np.subtract(amps, o, out=o)
    plus /= 2.0
    o /= 2.0
    # X on the memory qubit as a gather: the sources of +X_m, whose phases are all 1.
    flipped, _ = _apply_tables(pm.observable.num_qubits, 1 << pm.memory, 0, 1)
    plus += o.T[flipped].T
    return plus


def _require_cleared_memory(amps: np.ndarray, pm: Premeasurement) -> None:
    """Raise ProtocolError unless the memory qubit reads 0 with certainty in
    every row of a (..., 2^n) stack of amplitudes: each row's excited mass
    is at most PHYS_TOL as an absolute probability, so outcome branches of
    one state are not judged conditioned on their outcome."""
    bit = 1 << pm.memory
    excited = _masked_indices(pm.observable.num_qubits, bit, bit)
    # ndarray.sum, not np.sum, whose Python wrapper costs as much again on
    # one state; and Python's any, not a numpy reduction, which would add a
    # transient allocation at the flows' memory peak.
    mass = (np.abs(amps.T[excited].T) ** 2).sum(axis=-1)
    if any(np.ravel(mass > PHYS_TOL)):
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


@dataclass(frozen=True)
class RelativeFact:
    """One recorded outcome, relative to the owner that premeasured it.

    `status` says whether the record still reflects the original
    premeasurement: 'current', 'disturbed' once a later premeasurement fails
    to commute with the record observable, or 'erased' once the
    premeasurement is reversed. `ledger` decides it.
    """

    owner: str
    label: str
    qubit: int
    stage: str
    status: str


def ledger(steps: Sequence[tuple]) -> tuple:
    """The relative facts written by `steps`, in writing order.

    Each step is (label, premeasurement, stage) in the order applied; stage
    None reverses the premeasurement that wrote record `label`. A record is
    'erased' if a later step reversed it (its memory reads 0), 'disturbed'
    if a later premeasurement acts with X or Y on its memory (its agreement
    with the observable's earlier reading is 0), and 'current' otherwise
    (agreement 1).

    Raises ValueError where that rule cannot judge: a label or memory
    written twice, X or Y on an erased memory, or any reversal but of a
    current record that no step since changed (each commutes with its
    observable and has its memory outside that support) and that acts with
    X or Y on no other record's memory. Undoing a disturbance, for one,
    restores the agreement.
    """
    written = {}  # label -> [premeasurement, stage, status, index written at]
    for i, (label, pm, stage) in enumerate(steps):
        if stage is None:
            entry = written.get(label)
            if entry is None or entry[0] != pm or entry[2] != "current" or any(
                    not commutes(other.observable, pm.observable)
                    or pm.observable.factors[other.memory] != "I"
                    for _, other, _ in steps[entry[3] + 1:i]):
                raise ValueError(f"cannot judge the reversal of record {label!r}")
            entry[2] = "erased"
        elif label in written or any(pm.memory == e[0].memory for e in written.values()):
            raise ValueError(f"record {label!r} or memory qubit {pm.memory} written twice")
        for other, entry in written.items():
            if pm.observable.factors[entry[0].memory] in "XY":
                if stage is None or entry[2] == "erased":
                    raise ValueError(
                        f"cannot judge a step acting on the memory of record {other!r}")
                entry[2] = "disturbed"
        if stage is not None:
            written[label] = [pm, stage, "current", i]
    # tuple() of a list allocates once; of a generator it over-allocates and
    # shrinks, which raised the memory peak of run cdr --experiment all.
    return tuple([RelativeFact(pm.owner, label, pm.memory, stage, status)
                  for label, (pm, stage, status, _) in written.items()])


@dataclass(frozen=True)
class StageSnapshot:
    """The full state and ledger contents at one protocol stage."""

    index: int
    label: str
    state: StateVector
    facts: tuple
