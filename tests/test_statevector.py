import numpy as np
import pytest

from isingdefect.model import ModelParams, build_hamiltonian
from isingdefect.paulis import PauliString, WeightedPauliSum
from isingdefect.statevector import (
    RotationGate,
    StateVector,
    expectation,
    pauli_apply_raw,
    pauli_expectation,
    plus_state,
    rotation_apply_raw,
    sum_apply_raw,
    sum_expectation_raw,
)
from oracles import dense_ground, dense_hamiltonian, dense_rotation, kron_chain

LETTERS = ["I", "X", "Y", "Z"]


def basis_state(n, index=0):
    amps = np.zeros(1 << n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def apply_rotation(state, gate):
    """The gate applied to a copy of the state."""
    out = StateVector(state.n_qubits, state.amplitudes.copy())
    rotation_apply_raw(out.amplitudes, gate)
    return out


def random_string(rng, n, allow_identity=False):
    while True:
        ops = {i: LETTERS[k] for i, k in enumerate(rng.integers(0, 4, size=n)) if k}
        if ops or allow_identity:
            return PauliString.from_ops(ops)


def test_plus_state_values():
    s = plus_state(1)
    np.testing.assert_allclose(s.amplitudes, [1 / np.sqrt(2)] * 2)
    s2 = plus_state(2)
    np.testing.assert_allclose(s2.amplitudes, [0.5] * 4)
    assert np.linalg.norm(plus_state(12).amplitudes) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        plus_state(0)
    with pytest.raises(ValueError):
        plus_state(29)


def test_rotation_identity_angle():
    s = plus_state(3)
    out = apply_rotation(s, RotationGate(PauliString.from_ops({1: "X"}), 0.0))
    np.testing.assert_allclose(out.amplitudes, s.amplitudes)


def test_rotation_on_eigenstate_is_global_phase():
    s = plus_state(1)
    out = apply_rotation(s, RotationGate(PauliString.from_ops({0: "X"}), np.pi / 4))
    np.testing.assert_allclose(out.amplitudes, np.exp(-1j * np.pi / 4) * s.amplitudes, atol=1e-12)


def test_zz_rotation_matches_matrix_exponential():
    s = basis_state(2, 0)
    out = apply_rotation(s, RotationGate(PauliString.from_ops({0: "Z", 1: "Z"}), 0.3))
    np.testing.assert_allclose(out.amplitudes[0], np.exp(-1j * 0.3), atol=1e-12)
    zz = kron_chain({0: "Z", 1: "Z"}, 2)
    rng = np.random.default_rng(0)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    sv = apply_rotation(
        type(s)(2, amps.copy()), RotationGate(PauliString.from_ops({0: "Z", 1: "Z"}), 0.3)
    )
    np.testing.assert_allclose(sv.amplitudes, dense_rotation(zz, 0.3) @ amps, atol=1e-12)


def test_random_gates_match_dense_matrices():
    rng = np.random.default_rng(42)
    n = 5
    for _ in range(40):
        string = random_string(rng, n)
        angle = rng.uniform(-np.pi, np.pi)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        state = type(plus_state(n))(n, amps.copy())
        out = apply_rotation(state, RotationGate(string, angle))
        P = kron_chain(string.ops, n)
        np.testing.assert_allclose(out.amplitudes, dense_rotation(P, angle) @ amps, atol=1e-12)
    # negated generators, as negated angles, on a (3, 2^n) batch, with a
    # diagonal and a single-site X string among them
    strings = [random_string(rng, n) for _ in range(20)]
    strings += [PauliString.from_ops({0: "Z", 3: "Z"}), PauliString.from_ops({2: "X"})]
    for string in strings:
        angle = rng.uniform(-np.pi, np.pi)
        batch = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
        for sign in (1, -1):
            P = sign * kron_chain(string.ops, n)
            out = batch.copy()
            rotation_apply_raw(out, RotationGate(string, sign * angle))
            np.testing.assert_allclose(out, batch @ dense_rotation(P, angle).T, atol=1e-12)


def test_pauli_apply_matches_dense():
    rng = np.random.default_rng(7)
    n = 4
    for _ in range(40):
        string = random_string(rng, n)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps /= np.linalg.norm(amps)
        out = pauli_apply_raw(amps, string)
        np.testing.assert_allclose(out, kron_chain(string.ops, n) @ amps, atol=1e-12)


def test_norm_preserved_over_long_random_sequence():
    rng = np.random.default_rng(9)
    n = 6
    state = plus_state(n)
    for _ in range(1000):
        string = random_string(rng, n)
        state = apply_rotation(state, RotationGate(string, rng.uniform(-np.pi, np.pi)))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-9


def test_rotation_inverse():
    rng = np.random.default_rng(21)
    n = 4
    state = plus_state(n)
    gate = RotationGate(PauliString.from_ops({1: "Y", 3: "Z"}), 0.77)
    out = apply_rotation(apply_rotation(state, gate), gate.inverse())
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_expectation_basic():
    x = WeightedPauliSum(1).add(1.0, PauliString.from_ops({0: "X"}))
    assert expectation(plus_state(1), x) == pytest.approx(1.0)
    assert expectation(basis_state(1, 0), x) == pytest.approx(0.0)


def test_expectation_requires_hermitian():
    bad = WeightedPauliSum(1).add(1j, PauliString.from_ops({0: "X"}))
    with pytest.raises(ValueError):
        expectation(plus_state(1), bad)


def test_pauli_expectation_rejects_sites_past_the_register():
    # a site past the register is an input error, not the identity (Z) or an
    # out-of-bounds index (X)
    plus = plus_state(2)
    assert pauli_expectation(plus, PauliString.from_ops({1: "X"})) == pytest.approx(1.0)
    for letter in "XYZ":
        with pytest.raises(ValueError, match="out of range"):
            pauli_expectation(plus, PauliString.from_ops({5: letter}))


def test_ground_state_energy_expectation_small_chain():
    H = dense_hamiltonian(2, 0, 0.0, 1)
    energy, gs, _ = dense_ground(H)
    assert energy == pytest.approx(-np.sqrt(5), abs=1e-12)
    hsum = WeightedPauliSum(2)
    hsum.add(-1.0, PauliString.from_ops({0: "Z", 1: "Z"}))
    hsum.add(-1.0, PauliString.from_ops({0: "X"}))
    hsum.add(-1.0, PauliString.from_ops({1: "X"}))
    state = type(plus_state(2))(2, gs.astype(complex))
    assert expectation(state, hsum) == pytest.approx(energy, abs=1e-10)


def test_inner_products():
    s = plus_state(3)
    assert np.vdot(s.amplitudes, s.amplitudes) == pytest.approx(1.0)
    assert np.vdot(basis_state(1, 0).amplitudes, basis_state(1, 1).amplitudes) == pytest.approx(0.0)
    rot = apply_rotation(plus_state(1), RotationGate(PauliString.from_ops({0: "Z"}), 0.4))
    # <+|Rz(phi)|+> = cos(phi) under the exp(-i phi Z) convention
    assert np.vdot(plus_state(1).amplitudes, rot.amplitudes) == pytest.approx(np.cos(0.4), abs=1e-12)


def _check_sum_kernels(H, dense, rng):
    """obs @ B and the row means <b|obs|b> against a dense matrix, for
    random complex batches of 1 and 7 rows (row means only where the
    sum is hermitian)."""
    dim = dense.shape[0]
    for rows in (1, 7):
        B = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
        B /= np.linalg.norm(B, axis=1, keepdims=True)
        HB = B @ dense.T
        np.testing.assert_allclose(sum_apply_raw(B, H), HB, rtol=0, atol=1e-12)
        if H.is_hermitian():
            means = np.einsum("ij,ij->i", B.conj(), HB).real
            np.testing.assert_allclose(sum_expectation_raw(B, H), means, rtol=0, atol=1e-12)
            assert expectation(StateVector(H.n_qubits, B[0]), H) == pytest.approx(means[0], abs=1e-12)


@pytest.mark.parametrize("L", range(2, 9))
@pytest.mark.parametrize("b", (0, 1))
def test_grouped_kernels_match_dense_hamiltonian(L, b):
    rng = np.random.default_rng(100 * L + b)
    j_max = L if b else L - 1
    for v in (0.0, 0.7, np.inf):
        for j in sorted({1, L // 2, j_max}):
            H = build_hamiltonian(ModelParams(L=L, b=b, v=v, j=j))
            _check_sum_kernels(H, dense_hamiltonian(L, b, v, j), rng)


GENERIC_TERMS = [  # (coefficient, site -> letter) on 4 qubits
    (0.4, {}), (-1.3, {0: "Z"}), (0.8, {1: "Z", 3: "Z"}), (-0.6, {2: "X"}),
    (0.9, {1: "Y"}), (0.5, {0: "X", 3: "X"}), (-0.7, {0: "X", 1: "Y", 2: "Z"}),
    (1.1, {2: "Y", 3: "Y"}), (0.3, {1: "Z", 2: "X"}),
]


def _sum_and_dense(terms, L=4):
    H = WeightedPauliSum(L, [(c, PauliString.from_ops(ops)) for c, ops in terms])
    return H, sum(c * kron_chain(ops, L) for c, ops in terms)


def test_grouped_kernels_on_generic_sums():
    rng = np.random.default_rng(5)
    H, dense = _sum_and_dense(GENERIC_TERMS)
    _, xsites, rest = H.grouped()
    assert len(xsites) == 1 and len(rest) == 5
    _check_sum_kernels(H, dense, rng)
    # complex weights leave the real diagonal and X groups for the rest
    H, dense = _sum_and_dense(GENERIC_TERMS + [(0.2j, {0: "Z"}), (0.5 - 0.1j, {3: "X"})])
    assert not H.is_hermitian()
    _check_sum_kernels(H, dense, rng)


def test_add_after_use_regroups():
    rng = np.random.default_rng(8)
    H = build_hamiltonian(ModelParams(L=5, b=1, v=0.7))
    dense = dense_hamiltonian(5, 1, 0.7, 2)
    _check_sum_kernels(H, dense, rng)
    grouped = H.grouped()
    assert H.grouped() is grouped
    extra = [(0.3, {0: "Z"}), (-0.8, {4: "X"}), (0.6, {1: "Y", 2: "X"})]
    for c, ops in extra:
        H.add(c, PauliString.from_ops(ops))
        dense = dense + c * kron_chain(ops, 5)
        _check_sum_kernels(H, dense, rng)
    assert H.grouped() is not grouped
