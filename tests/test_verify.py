"""Monomial arithmetic of verify check 2 against dense matrix products."""
import numpy as np
import pytest

from relfacts.pauli import PauliString, commutes
from relfacts.verify import _bracket_norm, _monomial, _monomial_product

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


@pytest.mark.parametrize("column", [
    np.array([1, 1j, 0, 0]),   # two nonzeros
    np.zeros(4),               # no nonzero
])
def test_non_monomial_matrix_raises(column):
    matrix = np.eye(4, dtype=complex)
    matrix[:, 2] = column
    with pytest.raises(ValueError, match="not monomial"):
        _monomial(matrix)
