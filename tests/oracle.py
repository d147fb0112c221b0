"""Independent dense-matrix oracle for the test suite.

Everything here is plain numpy kron algebra with no imports from the
package under test, so expectations frozen from these helpers are derived
along a second, independent code path. Convention matches the package:
qubit q is bit q of the basis index (qubit 0 = least significant), so a
kron product is built from the highest qubit down.
"""
from __future__ import annotations

from itertools import product as iter_product

import numpy as np

MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def op(num_qubits: int, factors: dict) -> np.ndarray:
    """Dense operator with single-qubit `factors` = {qubit: "X"|"Y"|"Z"}."""
    out = np.array([[1.0 + 0j]])
    for q in reversed(range(num_qubits)):
        out = np.kron(out, MATS[factors.get(q, "I")])
    return out


def op_label(label: str) -> np.ndarray:
    """Dense operator from a qubit-0-first factor string like "XIZ"."""
    return op(len(label), {q: f for q, f in enumerate(label) if f != "I"})


def premeasure_unitary(num_qubits: int, observable: np.ndarray,
                       memory: int) -> np.ndarray:
    """U = P_plus + X_mem @ P_minus; asserts Hermitian unitary involution."""
    dim = observable.shape[0]
    plus = (np.eye(dim) + observable) / 2
    minus = (np.eye(dim) - observable) / 2
    x_mem = op(num_qubits, {memory: "X"})
    u = plus + x_mem @ minus
    assert np.allclose(u, u.conj().T, atol=1e-12)
    assert np.allclose(u @ u, np.eye(dim), atol=1e-12)
    return u


def ghz_amps(num_qubits: int, qubits) -> np.ndarray:
    """(|0..0> + |1..1>)/sqrt(2) on `qubits`, |0> elsewhere."""
    amps = np.zeros(1 << num_qubits, dtype=complex)
    ones = 0
    for q in qubits:
        ones |= 1 << q
    amps[0] = 1 / np.sqrt(2)
    amps[ones] = 1 / np.sqrt(2)
    return amps


def expect(amps: np.ndarray, matrix: np.ndarray) -> float:
    val = complex(np.vdot(amps, matrix @ amps))
    assert abs(val.imag) < 1e-10
    return val.real


def replay_ledger(num_qubits: int, steps) -> list:
    """The (label, status) ledger after each prefix of `steps`: entry n
    holds the records written by the first n steps, in writing order.

    A step is (label, factors, memory, reversal): the premeasured
    observable's single-qubit `factors` and the record's memory qubit.
    Replayed forward: a premeasurement first marks "disturbed" every current
    record whose Z on its memory fails to commute with the observable's
    dense matrix, then writes its own record as "current"; a reversal marks
    the record `label` "erased".
    """
    statuses = {}
    record_z = {}  # the diagonal of Z on each record's memory
    ledgers = [[]]
    for label, factors, memory, reversal in steps:
        if reversal:
            statuses[label] = "erased"
        else:
            applied = op(num_qubits, factors)
            for written, status in statuses.items():
                # Z is diagonal: Z @ applied scales rows, applied @ Z columns.
                z = record_z[written]
                if status == "current" and not np.allclose(z[:, None] * applied, applied * z):
                    statuses[written] = "disturbed"
            statuses[label] = "current"
            record_z[label] = np.diag(op(num_qubits, {memory: "Z"}))
        ledgers.append(list(statuses.items()))
    return ledgers


def brute_force_count(constraints, universe) -> int:
    """Count +/-1 assignments satisfying every (variables, rhs) constraint
    by direct enumeration with itertools."""
    count = 0
    for values in iter_product((1, -1), repeat=len(universe)):
        assignment = dict(zip(universe, values))
        ok = True
        for variables, rhs in constraints:
            prod = 1
            for v in variables:
                prod *= assignment[v]
            if prod != rhs:
                ok = False
                break
        if ok:
            count += 1
    return count


def random_state(rng: np.random.Generator, num_qubits: int,
                 zero_qubits=()) -> np.ndarray:
    """Haar-ish random state; listed qubits are forced to |0>."""
    amps = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    for q in zero_qubits:
        idx = np.arange(1 << num_qubits)
        amps[(idx >> q) & 1 == 1] = 0.0
    return amps / np.linalg.norm(amps)


def random_stack(rng: np.random.Generator, rows: int, num_qubits: int) -> np.ndarray:
    """A (rows, 2^n) stack of random amplitudes with signed zeros mixed in:
    about a quarter of the real and of the imaginary parts are +0.0 or -0.0."""
    shape = (rows, 1 << num_qubits)
    real, imag = rng.standard_normal(shape), rng.standard_normal(shape)
    for part in (real, imag):
        zeroed = rng.random(shape) < 0.25
        part[zeroed] = np.copysign(0.0, rng.choice([-1.0, 1.0], size=shape))[zeroed]
    return real + 1j * imag


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal bits, so +0.0 and -0.0 differ."""
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64))
