"""Pauli algebra checked against independent dense kron matrices."""
from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import MATS, op_label, random_stack, random_state, same_bits
from relfacts.errors import ResourceError
from relfacts.pauli import (
    DENSE_MATRIX_MAX_QUBITS,
    PauliString,
    _apply_tables,
    commutes,
    product_of,
)
from relfacts.statevector import _masked_indices

FACTORS = "IXYZ"


def all_strings(num_qubits, signs=(1,)):
    for sign in signs:
        for factors in iter_product(FACTORS, repeat=num_qubits):
            yield PauliString(num_qubits, factors, sign)


def dense(p):
    return p.sign * op_label("".join(p.factors))


class TestConstruction:
    def test_label_roundtrip(self):
        p = PauliString.from_label("XIZ")
        assert p.factors == ("X", "I", "Z")
        assert p.label() == "+XIZ"
        assert PauliString.from_label("XY", sign=-1).label() == "-XY"

    def test_from_map_and_single(self):
        p = PauliString.from_map(4, {0: "X", 3: "Y"})
        assert p.label() == "+XIIY"
        assert PauliString.single(3, 1, "Z") == PauliString.from_label("IZI")
        assert PauliString.identity(2).is_identity()

    def test_support_and_weight(self):
        p = PauliString.from_label("XIZY")
        assert p.support() == (0, 2, 3)
        assert p.weight() == 3
        assert PauliString.identity(3).support() == ()

    def test_every_string_is_an_involution(self):
        identity = PauliString.identity(2)
        for p in all_strings(2, signs=(1, -1)):
            assert p * p == identity
            np.testing.assert_allclose(dense(p) @ dense(p), np.eye(4), atol=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XQ")
        with pytest.raises(ValueError):
            PauliString(2, ("X",))
        with pytest.raises(ValueError):
            PauliString.from_label("X", sign=2)
        with pytest.raises(ValueError):
            PauliString.from_map(2, {5: "X"})
        with pytest.raises(ValueError):
            PauliString(0, ())

    def test_dense_matches_kron(self):
        for p in all_strings(2, signs=(1, -1)):
            np.testing.assert_allclose(p.dense_matrix(), dense(p), atol=1e-15)

    def test_dense_guard(self):
        with pytest.raises(ResourceError):
            PauliString.identity(13).dense_matrix()


class TestProduct:
    def test_single_qubit_table_exhaustive(self):
        for f, g in iter_product(FACTORS, repeat=2):
            p = PauliString.from_label(f)
            q = PauliString.from_label(g)
            want = MATS[f] @ MATS[g]
            if commutes(p, q):
                got = (p * q).dense_matrix()
                np.testing.assert_allclose(got, want, atol=1e-15)
            else:
                with pytest.raises(ValueError):
                    p * q

    def test_multi_qubit_signs(self):
        xx = PauliString.from_label("XX")
        zz = PauliString.from_label("ZZ")
        assert (xx * zz).label() == "-YY"
        np.testing.assert_allclose(
            (xx * zz).dense_matrix(), dense(xx) @ dense(zz), atol=1e-15)
        assert (xx * xx).label() == "+II"
        assert (xx.with_sign(-1) * zz).label() == "+YY"

    def test_commuting_products_match_dense_exhaustively(self):
        for p in all_strings(2):
            for q in all_strings(2):
                if commutes(p, q):
                    np.testing.assert_allclose(
                        (p * q).dense_matrix(), dense(p) @ dense(q), atol=1e-15)

    def test_register_mismatch(self):
        with pytest.raises(ValueError):
            PauliString.from_label("X") * PauliString.from_label("XX")

    def test_product_of_folds_in_order(self):
        strings = [PauliString.from_label(label) for label in ("XXX", "ZZI", "IZZ")]
        want = dense(strings[0]) @ dense(strings[1]) @ dense(strings[2])
        np.testing.assert_allclose(
            product_of(strings).dense_matrix(), want, atol=1e-15)
        assert product_of(iter(strings[:1])) == strings[0]
        with pytest.raises(ValueError):
            product_of([PauliString.from_label("X"), PauliString.from_label("Z")])


class TestCommutes:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_exhaustive_against_dense_commutator(self, num_qubits):
        strings = list(all_strings(num_qubits))
        mats = [dense(p) for p in strings]
        for (p, mp), (q, mq) in iter_product(zip(strings, mats), repeat=2):
            want = np.allclose(mp @ mq - mq @ mp, 0.0, atol=1e-12)
            assert commutes(p, q) == want, f"{p.label()} vs {q.label()}"

    def test_sign_is_irrelevant(self):
        p = PauliString.from_label("XY", sign=-1)
        q = PauliString.from_label("YX")
        assert commutes(p, q) == commutes(p.with_sign(1), q)


class TestApply:
    def test_fixed_phases(self):
        zero = np.array([1.0, 0.0], dtype=complex)
        one = np.array([0.0, 1.0], dtype=complex)
        y = PauliString.from_label("Y")
        np.testing.assert_allclose(y.apply_to_array(zero), 1j * one, atol=1e-15)
        np.testing.assert_allclose(y.apply_to_array(one), -1j * zero, atol=1e-15)
        z = PauliString.from_label("Z", sign=-1)
        np.testing.assert_allclose(z.apply_to_array(one), one, atol=1e-15)

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_apply_matches_dense(self, num_qubits, seed):
        # The first call builds the tables, the second reads them back.
        rng = np.random.default_rng(seed)
        factors = tuple(rng.choice(list(FACTORS), size=num_qubits))
        sign = int(rng.choice([1, -1]))
        p = PauliString(num_qubits, factors, sign)
        amps = random_state(rng, num_qubits)
        _apply_tables.cache_clear()
        first = p.apply_to_array(amps)
        assert _apply_tables.cache_info().misses == 1
        again = p.apply_to_array(amps)
        assert _apply_tables.cache_info().hits == 1
        np.testing.assert_allclose(first, dense(p) @ amps, atol=1e-12)
        np.testing.assert_array_equal(again, first)

    def test_every_string_matches_dense_from_the_memo(self):
        # Every string of a register shares one memo, so a key that misses
        # a mask or the sign would hand one string another's tables.
        rng = np.random.default_rng(11)
        for num_qubits in (1, 2, 3):
            amps = random_state(rng, num_qubits)
            strings = list(all_strings(num_qubits, signs=(1, -1)))
            _apply_tables.cache_clear()
            for _ in range(2):
                for p in strings:
                    np.testing.assert_allclose(
                        p.apply_to_array(amps), dense(p) @ amps, atol=1e-12)
            assert _apply_tables.cache_info().hits == len(strings)

    def test_double_apply_is_identity_200_cases(self):
        rng = np.random.default_rng(20240917)
        for _ in range(200):
            num_qubits = int(rng.integers(1, 7))
            factors = tuple(rng.choice(list(FACTORS), size=num_qubits))
            p = PauliString(num_qubits, factors, int(rng.choice([1, -1])))
            amps = random_state(rng, num_qubits)
            twice = p.apply_to_array(p.apply_to_array(amps))
            np.testing.assert_allclose(twice, amps, atol=1e-12)


class TestStackedApply:
    @given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_each_row_equals_the_single_state_call(self, num_qubits, rows, seed):
        rng = np.random.default_rng(seed)
        p = PauliString(num_qubits, tuple(rng.choice(list(FACTORS), size=num_qubits)),
                        int(rng.choice([1, -1])))
        stack = random_stack(rng, rows, num_qubits)
        # A stacked output is Fortran-ordered, and so is the stack a second
        # application reads.
        for layout in (stack, np.asfortranarray(stack)):
            out = p.apply_to_array(layout)
            assert out.shape == stack.shape
            for r in range(rows):
                assert same_bits(out[r], p.apply_to_array(stack[r]))

    def test_leading_axes_are_batch_axes(self):
        rng = np.random.default_rng(5)
        p = PauliString.from_label("XYZ", sign=-1)
        stack = random_stack(rng, 6, 3).reshape(2, 3, 8)
        out = p.apply_to_array(stack)
        for i, j in iter_product(range(2), range(3)):
            assert same_bits(out[i, j], p.apply_to_array(stack[i, j]))

    @pytest.mark.parametrize("shape", [(), (4,), (3, 4), (8, 2)])
    def test_wrong_last_axis_raises(self, shape):
        with pytest.raises(ValueError, match="does not match 3 qubits"):
            PauliString.from_label("XYZ").apply_to_array(np.zeros(shape, dtype=complex))


class TestMemoisedTables:
    @pytest.mark.parametrize("build, key", [
        (_apply_tables, (3, 0b011, 0b110, -1)),
        (_masked_indices, (3, 0b010, 0b010)),
        (_apply_tables, (DENSE_MATRIX_MAX_QUBITS + 1, 1, 1, 1)),
    ])
    def test_tables_are_read_only(self, build, key):
        tables = build(*key)
        for table in tables if isinstance(tables, tuple) else (tables,):
            with pytest.raises(ValueError):
                table[0] = table[1]

    def test_large_registers_are_not_memoised(self):
        n = DENSE_MATRIX_MAX_QUBITS + 2
        p = PauliString.from_label("XYZ" + "I" * (n - 3), sign=-1)
        amps = np.zeros(1 << n, dtype=complex)
        amps[0] = 1.0
        size = _apply_tables.cache_info().currsize
        out = p.apply_to_array(amps)
        assert _apply_tables.cache_info().currsize == size
        expected = np.zeros(1 << n, dtype=complex)
        expected[0b011] = -1j  # -X0 Y1 Z2 |000> = -(i)|011>
        np.testing.assert_array_equal(out, expected)
