"""Signed Pauli-string algebra on n qubits.

Qubit convention (package-wide): qubit q addresses bit q of the basis-state
index, so qubit 0 is the least significant bit. String labels read from
qubit 0 upward: "XYZ" means X on qubit 0, Y on qubit 1, Z on qubit 2.

Only Hermitian objects are representable: a PauliString carries a real sign
(+1 or -1) and multiplication refuses anticommuting operands, whose product
would pick up a factor of i. Every observable the package measures,
premeasures or lifts is a single string: lifting a string through a
premeasurement yields a string again.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul
from typing import Iterable, Mapping

import numpy as np

from .errors import ResourceError

VALID_FACTORS = ("I", "X", "Y", "Z")

DENSE_MATRIX_MAX_QUBITS = 12

# Keys kept per memoised table builder: at 12 qubits one key holds at most
# 96 KiB, so a builder never holds more than 24 MiB.
_MEMO_KEYS = 256

# Single-qubit products: f*g = (i ** power) * result.
_SINGLE_PRODUCT = {
    ("I", "I"): ("I", 0), ("I", "X"): ("X", 0), ("I", "Y"): ("Y", 0), ("I", "Z"): ("Z", 0),
    ("X", "I"): ("X", 0), ("X", "X"): ("I", 0), ("X", "Y"): ("Z", 1), ("X", "Z"): ("Y", 3),
    ("Y", "I"): ("Y", 0), ("Y", "X"): ("Z", 3), ("Y", "Y"): ("I", 0), ("Y", "Z"): ("X", 1),
    ("Z", "I"): ("Z", 0), ("Z", "X"): ("Y", 1), ("Z", "Y"): ("X", 3), ("Z", "Z"): ("I", 0),
}

_SINGLE_MATRIX = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _validated_factors(num_qubits: int, factors) -> tuple:
    factors = tuple(factors)
    if num_qubits < 1:
        raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
    if len(factors) != num_qubits:
        raise ValueError(
            f"expected {num_qubits} factors, got {len(factors)}")
    for f in factors:
        if f not in VALID_FACTORS:
            raise ValueError(f"invalid Pauli factor {f!r}; expected one of I, X, Y, Z")
    return factors


@dataclass(frozen=True)
class PauliString:
    """A signed tensor product of single-qubit Pauli factors.

    Invariants: sign is +1 or -1; every such string is Hermitian, unitary,
    and an involution (it squares to the identity).
    """

    num_qubits: int
    factors: tuple
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "factors", _validated_factors(self.num_qubits, self.factors))
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_label(cls, label: str, sign: int = 1) -> "PauliString":
        """Build from a factor string like "XIZ" (qubit 0 first)."""
        return cls(len(label), tuple(label), sign)

    @classmethod
    def from_map(cls, num_qubits: int, factor_map: Mapping[int, str], sign: int = 1) -> "PauliString":
        """Build from {qubit: factor}; unlisted qubits get identity."""
        factors = ["I"] * num_qubits
        for qubit, f in factor_map.items():
            if not 0 <= qubit < num_qubits:
                raise ValueError(f"qubit {qubit} out of range for {num_qubits} qubits")
            factors[qubit] = f
        return cls(num_qubits, tuple(factors), sign)

    @classmethod
    def single(cls, num_qubits: int, qubit: int, factor: str, sign: int = 1) -> "PauliString":
        return cls.from_map(num_qubits, {qubit: factor}, sign)

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        return cls(num_qubits, ("I",) * num_qubits)

    # -- structure ---------------------------------------------------------

    def label(self) -> str:
        return ("+" if self.sign > 0 else "-") + "".join(self.factors)

    def support(self) -> tuple:
        """Qubits acted on non-trivially, ascending."""
        return tuple(q for q, f in enumerate(self.factors) if f != "I")

    def weight(self) -> int:
        return len(self.support())

    def is_identity(self) -> bool:
        return all(f == "I" for f in self.factors)

    def with_sign(self, sign: int) -> "PauliString":
        return PauliString(self.num_qubits, self.factors, sign)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Operator product. Defined only for commuting operands; the
        product of anticommuting strings is anti-Hermitian and is refused."""
        if not isinstance(other, PauliString):
            return NotImplemented
        power, factors = _phased_product(self, other)
        if power % 2 == 1:
            raise ValueError(
                "product of anticommuting Pauli strings is not Hermitian; "
                f"refusing {self.label()} * {other.label()}")
        sign = self.sign * other.sign * (1 if power % 4 == 0 else -1)
        return PauliString(self.num_qubits, factors, sign)

    def apply_to_array(self, amplitudes: np.ndarray) -> np.ndarray:
        """Return P @ amplitudes without building a dense matrix.

        `amplitudes` is a (..., 2^n) stack of states, P acting on each row of
        the last axis; a single state is the (2^n,) stack of one. The X/Y
        mask fixes which index each output amplitude is read from, the Y/Z
        mask its (-1) phase, and the sign and Y count a global power of i.
        Both tables come from `_apply_tables`, memoised per register size,
        masks and sign, so a repeated string costs one gather along the last
        axis and one multiply, whatever the stack's shape.
        """
        n = self.num_qubits
        if amplitudes.shape[-1:] != (1 << n,):
            raise ValueError(
                f"amplitude array of shape {amplitudes.shape} does not match {n} qubits")
        flip_mask = 0
        phase_mask = 0
        for q, f in enumerate(self.factors):
            if f in ("X", "Y"):
                flip_mask |= 1 << q
            if f in ("Y", "Z"):
                phase_mask |= 1 << q
        sources, phases = _apply_tables(n, flip_mask, phase_mask, self.sign)
        # A gather along the first axis of the transpose is a gather along the
        # last axis; on a 1-D array it is amplitudes[sources], numpy's fast
        # path. take() would copy the read-only table on every call, and
        # amplitudes[..., sources] builds an index iterator each time. A
        # stack's result comes out Fortran-ordered.
        return phases * amplitudes.T[sources].T

    def dense_matrix(self) -> np.ndarray:
        """Explicit 2^n x 2^n matrix; guarded to small n."""
        if self.num_qubits > DENSE_MATRIX_MAX_QUBITS:
            raise ResourceError(
                f"dense matrix for {self.num_qubits} qubits exceeds the "
                f"{DENSE_MATRIX_MAX_QUBITS}-qubit guard")
        out = np.array([[self.sign]], dtype=complex)
        # Tensor order: qubit n-1 varies slowest, matching the index convention.
        for f in reversed(self.factors):
            out = np.kron(out, _SINGLE_MATRIX[f])
        return out

    def __str__(self) -> str:
        return self.label()


def _register_tables(build):
    """Memoise `build(num_qubits, *key)`, which returns an index or phase
    array over the 2^n basis indices of a register, or a tuple of them, and
    make every array read-only so that all callers can share it.

    Only registers of at most DENSE_MATRIX_MAX_QUBITS qubits are memoised,
    and at most _MEMO_KEYS keys per builder, so the resident tables stay
    bounded whatever the input; larger registers call the builder afresh.
    """
    def frozen(num_qubits: int, *key):
        tables = build(num_qubits, *key)
        for table in tables if isinstance(tables, tuple) else (tables,):
            table.setflags(write=False)
        return tables

    memo = lru_cache(maxsize=_MEMO_KEYS)(frozen)

    def tables(num_qubits: int, *key):
        if num_qubits > DENSE_MATRIX_MAX_QUBITS:
            return frozen(num_qubits, *key)
        return memo(num_qubits, *key)

    tables.cache_info = memo.cache_info
    tables.cache_clear = memo.cache_clear
    return tables


@_register_tables
def _apply_tables(num_qubits: int, flip_mask: int, phase_mask: int, sign: int) -> tuple:
    """(sources, phases) with (P @ a)[j] = phases[j] * a[sources[j]].

    P maps basis index i to i ^ flip_mask with phase
    sign * i**(Y count) * (-1)**popcount(i & phase_mask), where the Y count
    is popcount(flip_mask & phase_mask); the phase is read at the source.
    """
    sources = np.arange(1 << num_qubits) ^ flip_mask
    parity = sources & phase_mask
    for shift in (16, 8, 4, 2, 1):  # fold to bit 0; indices stay below 2^32
        parity ^= parity >> shift
    y_count = bin(flip_mask & phase_mask).count("1")
    global_phase = sign * (1j ** (y_count % 4))
    return sources, global_phase * (1.0 - 2.0 * (parity & 1))


def _phased_product(p: PauliString, q: PauliString) -> tuple:
    """Factor-wise product, ignoring the operand signs.

    Returns (power, factors) with p.factors * q.factors = i**power * factors.
    """
    if p.num_qubits != q.num_qubits:
        raise ValueError(
            f"qubit counts differ: {p.num_qubits} vs {q.num_qubits}")
    power = 0
    factors = []
    for f, g in zip(p.factors, q.factors):
        h, k = _SINGLE_PRODUCT[(f, g)]
        power += k
        factors.append(h)
    return power % 4, tuple(factors)


def product_of(strings: Iterable[PauliString]) -> PauliString:
    """Operator product of pairwise-commuting strings, in the listed order."""
    return reduce(mul, strings)


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff [p, q] = 0: two strings anticommute iff an odd number of
    sites holds differing non-identity factors."""
    if p.num_qubits != q.num_qubits:
        raise ValueError(
            f"qubit counts differ: {p.num_qubits} vs {q.num_qubits}")
    clashes = 0
    for f, g in zip(p.factors, q.factors):
        if f != "I" and g != "I" and f != g:
            clashes += 1
    return clashes % 2 == 0
