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


def two_time_distribution(amps: np.ndarray, first: np.ndarray, between,
                          second: np.ndarray) -> dict:
    """{(v, w): p} for reading the dense observable `first` (value v), then
    applying the dense unitaries `between` in order, then reading `second`
    (value w): p(v, w) = ||P_w U P_v psi||^2 with P_x = (1 + x O)/2."""
    eye = np.eye(amps.size)
    dist = {}
    for v in (1, -1):
        for w in (1, -1):
            vec = (eye + v * first) @ amps / 2
            for u in between:
                vec = u @ vec
            vec = (eye + w * second) @ vec / 2
            dist[(v, w)] = float(np.vdot(vec, vec).real)
    return dist


def replay_records(num_qubits: int, amps: np.ndarray, steps) -> list:
    """Each record's Born-rule evidence after each prefix of `steps`.

    A step is (label, factors, memory, reversal): the premeasured
    observable's single-qubit `factors` and the record's memory qubit; a
    reversal applies the same unitary again. Replayed with dense matrices
    from the state `amps`, entry n maps each record written by the first n
    steps, in writing order, to (agreement, reversed, excited):
    - agreement: E[v*w] for v, the observable read just before its record
      was written, and w, Z on the record's memory after step n;
    - reversed: whether one of the first n steps reversed it;
    - excited: the probability that its memory reads 1 after step n.
    """
    records = {}  # label -> (observable, memory, state before writing, unitaries since)
    reversed_labels = set()
    evidence = [{}]
    for label, factors, memory, reversal in steps:
        observable = op(num_qubits, factors)
        unitary = premeasure_unitary(num_qubits, observable, memory)
        if reversal:
            reversed_labels.add(label)
        else:
            records[label] = (observable, memory, amps, [])
        for record in records.values():
            record[3].append(unitary)
        amps = unitary @ amps
        entry = {}
        for written, (observable, memory, before, since) in records.items():
            z = op(num_qubits, {memory: "Z"})
            dist = two_time_distribution(before, observable, since, z)
            entry[written] = (sum(v * w * p for (v, w), p in dist.items()),
                              written in reversed_labels,
                              (1 - expect(amps, z)) / 2)
        evidence.append(entry)
    return evidence


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


def random_stack(rng: np.random.Generator, rows: int, num_qubits: int,
                 zero_fraction: float = 0.25) -> np.ndarray:
    """A (rows, 2^n) stack of random amplitudes with signed zeros mixed in:
    about `zero_fraction` of the real and of the imaginary parts are +0.0
    or -0.0."""
    shape = (rows, 1 << num_qubits)
    real, imag = rng.standard_normal(shape), rng.standard_normal(shape)
    for part in (real, imag):
        zeroed = rng.random(shape) < zero_fraction
        part[zeroed] = np.copysign(0.0, rng.choice([-1.0, 1.0], size=shape))[zeroed]
    return real + 1j * imag


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal bits, so +0.0 and -0.0 differ."""
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64))
