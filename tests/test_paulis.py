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
    assert multiply(x0, x0) == PauliString()
    assert PauliString().phase == 1.0


def test_multiply_xz_gives_minus_i_y():
    x0 = PauliString.from_ops({0: "X"})
    z0 = PauliString.from_ops({0: "Z"})
    prod = multiply(x0, z0)
    assert prod.ops == {0: "Y"}
    assert prod.phase == -1j


def test_multiply_two_qubit_example_against_matrix():
    a = PauliString.from_ops({0: "Z", 1: "Z"})
    b = PauliString.from_ops({1: "X"})
    prod = multiply(a, b)
    np.testing.assert_allclose(dense(prod, 2), dense(a, 2) @ dense(b, 2), atol=1e-12)
    assert prod.ops == {0: "Z", 1: "Y"}


def test_multiply_exhaustive_two_qubits():
    pairs = list(itertools.product(LETTERS, repeat=2))
    for la, lb in itertools.product(pairs, repeat=2):
        a = string_from_letters(la)
        b = string_from_letters(lb)
        prod = multiply(a, b)
        np.testing.assert_allclose(
            dense(prod, 2), dense(a, 2) @ dense(b, 2), atol=1e-12,
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
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_conjugate_of_product_is_reversed_product_of_conjugates():
    rng = np.random.default_rng(5)
    for _ in range(200):
        ops_a = {i: LETTERS[k] for i, k in enumerate(rng.integers(0, 4, size=3)) if k}
        ops_b = {i: LETTERS[k] for i, k in enumerate(rng.integers(0, 4, size=3)) if k}
        a = PauliString.from_ops(ops_a, phase=1j)
        b = PauliString.from_ops(ops_b, phase=-1.0)
        assert multiply(a, b).conjugate() == multiply(b.conjugate(), a.conjugate())


def test_phase_field_and_hermiticity():
    y = PauliString.from_ops({2: "Y"})
    assert y.phase == 1.0
    assert y.is_hermitian()
    iy = PauliString.from_ops({2: "Y"}, phase=1j)
    assert not iy.is_hermitian()
    assert iy.conjugate().phase == -1j


def test_sum_merges_terms():
    s = WeightedPauliSum(2)
    s.add(0.5, PauliString.from_ops({0: "X"}))
    s.add(0.25, PauliString.from_ops({0: "X"}))
    s.add(1.0, PauliString.from_ops({0: "X"}, phase=-1.0))
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
            np.testing.assert_allclose(
                dense(multiply(a, b), 2), dense(a, 2) @ dense(b, 2), atol=1e-12
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
