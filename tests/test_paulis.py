"""Pauli strings, weighted sums and their dense matrices; the test oracle's
Pauli-sum product is checked here against `dense_matrix`."""
import dataclasses
import itertools

import numpy as np
import pytest

from isingdefect.paulis import PauliString, WeightedPauliSum, dense_matrix, pauli_table

import oracles
from oracles import dense, kron_chain

LETTERS = ["I", "X", "Y", "Z"]


def key(letters):
    """The (x, z) key of the string with one letter per site."""
    s = PauliString.from_ops({i: p for i, p in enumerate(letters) if p != "I"})
    return s.x, s.z


def test_multiply_involution():
    assert oracles.product({(1, 0): 1}, {(1, 0): 1}) == {(0, 0): 1}


def test_multiply_xz_gives_minus_i_y():
    assert oracles.product({(1, 0): 1}, {(0, 1): 1}) == {(1, 1): -1j}


def test_multiply_two_qubit_example_against_matrix():
    a, b = {key("ZZ"): 1}, {key("IX"): 1}
    prod = oracles.product(a, b)
    assert prod == {key("ZY"): 1j}
    np.testing.assert_allclose(dense(prod, 2), dense(a, 2) @ dense(b, 2), atol=1e-12)


def test_multiply_exhaustive_two_qubits():
    pairs = list(itertools.product(LETTERS, repeat=2))
    for la, lb in itertools.product(pairs, repeat=2):
        a, b = {key(la): 1}, {key(lb): 1}
        prod = oracles.product(a, b)
        (phase,) = prod.values()
        assert phase in (1, 1j, -1, -1j)
        np.testing.assert_allclose(dense(prod, 2), dense(a, 2) @ dense(b, 2), atol=1e-12,
                                   err_msg=f"{la} * {lb}")


def random_strings(rng, count, n):
    return [{key(LETTERS[k] for k in rng.integers(0, 4, size=n)): 1} for _ in range(count)]


def test_multiply_associative_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b, c = random_strings(rng, 3, 4)
        left = oracles.product(oracles.product(a, b), c)
        assert left == oracles.product(a, oracles.product(b, c))


def test_conjugate_of_product_is_reversed_product_of_conjugates():
    # strings are hermitian, so (ab)^dagger = b^dagger a^dagger = ba:
    # the same string with the conjugate phase
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = random_strings(rng, 2, 3)
        assert oracles.product(b, a) == oracles.dagger(oracles.product(a, b))


def test_phase_field_and_hermiticity():
    # a string is its two masks and is hermitian; a phase lives on a
    # coefficient
    assert [f.name for f in dataclasses.fields(PauliString)] == ["x", "z"]
    y = PauliString.from_ops({2: "Y"})
    assert (y.x, y.z, y.e) == (0b100, 0b100, 1)
    Y = dense({(y.x, y.z): 1.0}, 3)
    np.testing.assert_array_equal(Y, Y.conj().T)
    assert WeightedPauliSum(3).add(1.0, y).is_hermitian()
    iy = WeightedPauliSum(3).add(1j, y)
    assert not iy.is_hermitian()
    assert oracles.dagger(oracles.pauli_map(iy)) == {(y.x, y.z): -1j}


def test_sum_merges_terms():
    s = WeightedPauliSum(2)
    s.add(0.5, PauliString.from_ops({0: "X"}))
    s.add(0.25, PauliString.from_ops({0: "X"}))
    # Y Z = i X: the product's phase folds into the coefficient, i * i = -1
    ((string, phase),) = oracles.product({key("Y"): 1}, {key("Z"): 1}).items()
    s.add(1j * phase, PauliString(*string))
    ((coeff, string),) = list(s.terms())
    assert coeff == pytest.approx(-0.25)
    assert string.ops == {0: "X"}


def test_commutator_norm_trivial_cases():
    x0, z0 = {(1, 0): 1.0}, {(0, 1): 1.0}
    assert oracles.commutator_norm(x0, x0) == 0.0
    assert oracles.commutator_norm(z0, x0) == pytest.approx(2.0)


def test_sum_product_matches_dense():
    # the oracle's sum algebra against its kron matrices, which are
    # `dense_matrix`'s string by string; a map's coefficient of the string P
    # is Tr(P M) / 2^n
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4):
        keys = list(itertools.product(range(1 << n), repeat=2))
        strings = [dense_matrix(WeightedPauliSum(n).add(1.0, PauliString(*k))) for k in keys]
        assert all(np.array_equal(dense({k: 1.0}, n), S) for k, S in zip(keys, strings))
        for _ in range(10):
            a, b = ({(int(x), int(z)): complex(*rng.normal(size=2))
                     for x, z in rng.integers(0, 1 << n, size=(4, 2))} for _ in range(2))
            A, B = dense(a, n), dense(b, n)
            for got, want in ((oracles.product(a, b), A @ B), (oracles.add(a, b), A + B),
                              (oracles.scale(a, 0.5 - 2j), (0.5 - 2j) * A),
                              (oracles.dagger(a), A.conj().T),
                              (oracles.commutator(a, b), A @ B - B @ A)):
                np.testing.assert_allclose(dense(got, n), want, rtol=0, atol=1e-12)
            C = A @ B - B @ A
            want = sum(abs(np.sum(P.T * C)) for P in strings) / 2**n
            assert oracles.commutator_norm(a, b) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_pauli_table_matches_the_oracle():
    # (X^x Z^z v)[k] = signs[k] v[index[k]], and the oracle's string of key
    # (x, z) is i^n_y X^x Z^z; stacked tuples give one row per string
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 4):
        dim = 1 << n
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        keys = list(itertools.product(range(dim), repeat=2))
        want = {(x, z): (-1j) ** (x & z).bit_count() * dense({(x, z): 1.0}, n) @ v
                for x, z in keys}
        for x, z in keys:
            index, signs = pauli_table(x, z, dim)
            assert (index is None) == (x == 0)
            np.testing.assert_allclose(signs * (v if index is None else v[index]),
                                       want[x, z], rtol=0, atol=1e-12)
        xs, zs = zip(*keys)
        for x, z in ((xs, zs), (xs, 1), (dim - 1, zs)):
            index, signs = pauli_table(x, z, dim)
            stacked = zip(np.broadcast_to(x, len(keys)), np.broadcast_to(z, len(keys)))
            rows = [want[int(a), int(b)] for a, b in stacked]
            np.testing.assert_allclose(signs * v[index], rows, rtol=0, atol=1e-12)
        index, signs = pauli_table(0, zs, dim)
        assert index is None and signs.shape == (len(keys), dim)
        np.testing.assert_allclose(signs * v, [want[0, z] for z in zs], rtol=0, atol=1e-12)
    index, signs = pauli_table(3, 1, 4)
    for table in (index, signs):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


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
            a, b = {key(la): 1}, {key(lb): 1}
            np.testing.assert_allclose(dense(oracles.product(a, b), 2),
                                       dense(a, 2) @ dense(b, 2), atol=1e-12)


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
