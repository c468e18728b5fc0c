import dataclasses
import itertools

import numpy as np
import pytest

from isingdefect.paulis import (
    PauliString,
    WeightedPauliSum,
    commutator_norm,
    dense_matrix,
    multiply,
)
from oracles import kron_chain

LETTERS = ["I", "X", "Y", "Z"]


def string_from_letters(letters):
    ops = {i: p for i, p in enumerate(letters) if p != "I"}
    return PauliString.from_ops(ops)


def dense(string, n):
    mat = kron_chain({}, n) * 0
    sum1 = WeightedPauliSum(n).add(1.0, string)
    return dense_matrix(sum1) + mat


def test_multiply_involution():
    x0 = PauliString.from_ops({0: "X"})
    assert multiply(x0, x0) == (1.0, PauliString())


def test_multiply_xz_gives_minus_i_y():
    x0 = PauliString.from_ops({0: "X"})
    z0 = PauliString.from_ops({0: "Z"})
    phase, prod = multiply(x0, z0)
    assert prod.ops == {0: "Y"}
    assert phase == -1j


def test_multiply_two_qubit_example_against_matrix():
    a = PauliString.from_ops({0: "Z", 1: "Z"})
    b = PauliString.from_ops({1: "X"})
    phase, prod = multiply(a, b)
    np.testing.assert_allclose(phase * dense(prod, 2), dense(a, 2) @ dense(b, 2), atol=1e-12)
    assert prod.ops == {0: "Z", 1: "Y"}


def test_multiply_exhaustive_two_qubits():
    pairs = list(itertools.product(LETTERS, repeat=2))
    for la, lb in itertools.product(pairs, repeat=2):
        a = string_from_letters(la)
        b = string_from_letters(lb)
        phase, prod = multiply(a, b)
        assert phase in (1, 1j, -1, -1j)
        np.testing.assert_allclose(
            phase * dense(prod, 2), dense(a, 2) @ dense(b, 2), atol=1e-12,
            err_msg=f"{la} * {lb}",
        )


def test_multiply_associative_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        strs = []
        for _ in range(3):
            ops = {i: LETTERS[k] for i, k in enumerate(rng.integers(0, 4, size=4)) if k}
            strs.append(PauliString.from_ops(ops))
        a, b, c = strs
        ab_phase, ab = multiply(a, b)
        bc_phase, bc = multiply(b, c)
        left_phase, left = multiply(ab, c)
        right_phase, right = multiply(a, bc)
        assert left == right
        assert ab_phase * left_phase == bc_phase * right_phase


def test_conjugate_of_product_is_reversed_product_of_conjugates():
    # strings are hermitian, so (ab)^dagger = b^dagger a^dagger = ba:
    # the same string with the conjugate phase
    rng = np.random.default_rng(5)
    for _ in range(200):
        ops_a = {i: LETTERS[k] for i, k in enumerate(rng.integers(0, 4, size=3)) if k}
        ops_b = {i: LETTERS[k] for i, k in enumerate(rng.integers(0, 4, size=3)) if k}
        a = PauliString.from_ops(ops_a)
        b = PauliString.from_ops(ops_b)
        ab_phase, ab = multiply(a, b)
        ba_phase, ba = multiply(b, a)
        assert ba == ab
        assert ba_phase == ab_phase.conjugate()


def test_phase_field_and_hermiticity():
    # a string is its two masks and is hermitian; a phase lives on a
    # coefficient
    assert [f.name for f in dataclasses.fields(PauliString)] == ["x", "z"]
    y = PauliString.from_ops({2: "Y"})
    assert (y.x, y.z, y.e) == (0b100, 0b100, 1)
    np.testing.assert_array_equal(dense(y, 3), dense(y, 3).conj().T)
    assert WeightedPauliSum(3).add(1.0, y).is_hermitian()
    iy = WeightedPauliSum(3).add(1j, y)
    assert not iy.is_hermitian()
    assert list(iy.conjugate_transpose().terms()) == [(-1j, y)]


def test_sum_merges_terms():
    s = WeightedPauliSum(2)
    s.add(0.5, PauliString.from_ops({0: "X"}))
    s.add(0.25, PauliString.from_ops({0: "X"}))
    # Y Z = i X: the product's phase folds into the coefficient, i * i = -1
    phase, string = multiply(PauliString.from_ops({0: "Y"}), PauliString.from_ops({0: "Z"}))
    s.add(1j * phase, string)
    assert len(s) == 1
    ((coeff, string),) = list(s.terms())
    assert coeff == pytest.approx(-0.25)
    assert string.ops == {0: "X"}


def test_commutator_norm_trivial_cases():
    x0 = WeightedPauliSum(1).add(1.0, PauliString.from_ops({0: "X"}))
    z0 = WeightedPauliSum(1).add(1.0, PauliString.from_ops({0: "Z"}))
    assert commutator_norm(x0, x0) == 0.0
    assert commutator_norm(z0, x0) == pytest.approx(2.0)


def test_sum_product_matches_dense():
    rng = np.random.default_rng(3)
    n = 3
    a = WeightedPauliSum(n)
    b = WeightedPauliSum(n)
    for s in (a, b):
        for _ in range(4):
            ops = {i: LETTERS[k] for i, k in enumerate(rng.integers(0, 4, size=n)) if k}
            s.add(complex(rng.normal(), rng.normal()), PauliString.from_ops(ops))
    np.testing.assert_allclose(dense_matrix(a @ b), dense_matrix(a) @ dense_matrix(b), atol=1e-12)
    np.testing.assert_allclose(
        dense_matrix(a.conjugate_transpose()), dense_matrix(a).conj().T, atol=1e-12
    )


def test_dense_matrix_real_when_possible_and_guarded():
    h = WeightedPauliSum(2)
    h.add(-1.0, PauliString.from_ops({0: "Y", 1: "Y"}))
    h.add(0.5, PauliString.from_ops({0: "X"}))
    assert dense_matrix(h).dtype == np.float64
    np.testing.assert_allclose(
        dense_matrix(h), -kron_chain({0: "Y", 1: "Y"}, 2) + 0.5 * kron_chain({0: "X"}, 2),
        atol=1e-15)
    h.add(1.0, PauliString.from_ops({0: "Y", 1: "Z"}))
    assert dense_matrix(h).dtype == np.complex128
    dense_matrix(WeightedPauliSum(12))
    with pytest.raises(ValueError, match="n <= 12"):
        dense_matrix(WeightedPauliSum(13))


def test_string_to_matrix_consistency_exhaustive():
    for la in itertools.product(LETTERS, repeat=2):
        for lb in itertools.product(LETTERS, repeat=2):
            a, b = string_from_letters(la), string_from_letters(lb)
            phase, prod = multiply(a, b)
            np.testing.assert_allclose(
                phase * dense(prod, 2), dense(a, 2) @ dense(b, 2), atol=1e-12
            )


def test_hermitian_flag():
    h = WeightedPauliSum(2)
    h.add(-1.0, PauliString.from_ops({0: "Z", 1: "Z"}))
    h.add(-1.0, PauliString.from_ops({0: "X"}))
    assert h.is_hermitian()
    bad = WeightedPauliSum(2).add(1j, PauliString.from_ops({0: "X"}))
    assert not bad.is_hermitian()


def test_register_guard():
    s = WeightedPauliSum(2)
    with pytest.raises(ValueError):
        s.add(1.0, PauliString.from_ops({5: "X"}))
