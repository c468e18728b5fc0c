"""Hamiltonian construction and the free-fermion spectrum, against the
test oracles."""
import math

import numpy as np
import pytest

from isingdefect.model import (
    ModelParams,
    _lowest_levels,
    _majorana_matrix,
    build_hamiltonian,
    defect_coefficients,
    energy_scan,
    ground_energy_gap,
)
from isingdefect.paulis import dense_matrix
from isingdefect.statevector import sum_apply_raw

import oracles
from oracles import exact_ground


def test_defect_coefficients_match_raw_form():
    for v in [0.0, 0.1, 0.7, 1.3, 2.0, 4.0]:
        c1, c2 = defect_coefficients(v)
        assert c1 == pytest.approx(2 * math.sinh(v) ** 2 / math.cosh(2 * v), rel=1e-14)
        assert c2 == pytest.approx(math.sinh(2 * v) / math.cosh(2 * v), rel=1e-14)


def test_defect_coefficients_endpoints():
    assert defect_coefficients(0.0) == (0.0, 0.0)
    assert defect_coefficients(math.inf) == (1.0, 1.0)
    # large finite v saturates without overflow
    c1, c2 = defect_coefficients(500.0)
    assert c1 == 1.0 and c2 == 1.0
    # [DERIVED] independent evaluation at v = 4
    c1, c2 = defect_coefficients(4.0)
    assert c1 == pytest.approx(0.9993290748196977, abs=1e-15)
    assert c2 == pytest.approx(0.999999774929676, abs=1e-15)


@pytest.mark.parametrize("L", [2, 3, 4, 5])
@pytest.mark.parametrize("b", [0, 1])
@pytest.mark.parametrize("v", [0.0, 0.7, 4.0])
def test_matches_independent_dense_build(L, b, v):
    p = ModelParams(L=L, b=b, v=v)
    got = dense_matrix(build_hamiltonian(p))
    want = oracles.dense_hamiltonian(L, b, v, p.j)
    assert np.allclose(got, want, atol=1e-12)


def test_wrap_bond_defect_matches_oracle():
    p = ModelParams(L=4, b=1, v=1.1, j=4)
    got = dense_matrix(build_hamiltonian(p))
    assert np.allclose(got, oracles.dense_hamiltonian(4, 1, 1.1, 4), atol=1e-12)


def test_hermitian_across_grid():
    for L in [2, 4, 6]:
        for b in [0, 1]:
            for v in [0.0, 1.3, math.inf]:
                assert build_hamiltonian(ModelParams(L=L, b=b, v=v)).is_hermitian()


def test_small_chain_ground_energies():
    # [DERIVED] closed forms for two sites
    assert exact_ground(ModelParams(L=2, b=0)).ground_energy == pytest.approx(
        -math.sqrt(5), abs=1e-12
    )
    assert exact_ground(ModelParams(L=2, b=1)).ground_energy == pytest.approx(
        -2 * math.sqrt(2), abs=1e-12
    )
    # [TRIVIAL] single site: H = -X
    assert exact_ground(ModelParams(L=1, b=0)).ground_energy == pytest.approx(
        -1.0, abs=1e-12
    )


@pytest.mark.parametrize("L", [2, 4, 6, 8, 10, 12])
def test_free_fermion_oracle_agreement(L):
    got = exact_ground(ModelParams(L=L, b=0, v=0.0)).ground_energy
    assert got == pytest.approx(oracles.free_fermion_ground_energy(L), abs=1e-9)


def test_defect_position_covariance():
    ref = exact_ground(ModelParams(L=6, b=1, v=1.3, j=1)).ground_energy
    for j in range(2, 7):
        e = exact_ground(ModelParams(L=6, b=1, v=1.3, j=j)).ground_energy
        assert e == pytest.approx(ref, abs=1e-9)


def test_infinite_v_cancels_defect_bond():
    p = ModelParams(L=4, b=0, v=math.inf, j=2)
    coeffs = {
        tuple(sorted(s.ops.items())): c for c, s in build_hamiltonian(p).terms()
    }
    # bulk -1 and defect +1 cancel on the impurity bond
    assert coeffs[((1, "Z"), (2, "Z"))] == pytest.approx(0.0, abs=1e-15)
    assert coeffs[((1, "X"),)] == pytest.approx(0.0, abs=1e-15)
    assert coeffs[((1, "Y"), (2, "Z"))] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "p",
    [
        ModelParams(L=5, b=0, v=0.0),
        ModelParams(L=5, b=1, v=2.0),
        ModelParams(L=6, b=1, v=math.inf),
    ],
)
def test_eigen_residual(p):
    res = exact_ground(p)
    H = build_hamiltonian(p)
    amps = res.ground_state.amplitudes
    resid = sum_apply_raw(amps, H) - res.ground_energy * amps
    assert np.linalg.norm(resid) < 1e-9
    assert res.gap >= 0.0


def test_frozen_values_at_experiment_scale():
    # [DERIVED] dense diagonalization, frozen; the free-fermion route must
    # reproduce them too
    cases = [
        (0, 0.0, -14.925971109909, 0.251162078),
        (1, 0.0, -15.322595151081, 0.131086926),
        (0, 4.0, -14.257245697782, 0.000387359),
    ]
    for b, v, e0, gap in cases:
        p = ModelParams(L=12, b=b, v=v, j=6)
        res = exact_ground(p)
        assert res.ground_energy == pytest.approx(e0, abs=1e-8)
        assert res.gap == pytest.approx(gap, abs=1e-8)
        assert ground_energy_gap(p) == pytest.approx((e0, gap), abs=1e-8)


@pytest.mark.parametrize("L", range(2, 11))
@pytest.mark.parametrize("b", [0, 1])
def test_free_fermion_energy_gap_matches_dense_oracle(L, b):
    j_max = L if b else L - 1
    for v in (0.0, 0.7, 4.0, math.inf):
        for j in sorted({1, L // 2, j_max}):
            w = np.linalg.eigvalsh(oracles.dense_hamiltonian(L, b, v, j))
            energy, gap = ground_energy_gap(ModelParams(L=L, b=b, v=v, j=j))
            assert energy == pytest.approx(w[0], abs=1e-10), (v, j)
            assert gap == pytest.approx(w[1] - w[0], abs=1e-10), (v, j)


def _majorana_matrix_by_terms(p, parity):
    """`_majorana_matrix` as a per-term loop: the reference its array writes
    must match bit for bit."""
    L = p.L
    A = np.zeros((2 * L, 2 * L))

    def add(w, m, n):  # w * i c_m c_n
        A[m, n] += 2.0 * w
        A[n, m] -= 2.0 * w

    for i in range(L):
        add(-1.0, 2 * i, 2 * i + 1)
    for i in range(L - 1):
        add(-1.0, 2 * i + 1, 2 * i + 2)
    if p.b == 1 and L > 1:
        add(parity, 2 * L - 1, 0)
    c1, c2 = defect_coefficients(p.v)
    if c1 != 0.0 or c2 != 0.0:
        jd = p.j - 1
        jp = (jd + 1) % L
        s = -parity if jp == 0 else 1.0
        add(c1, 2 * jd, 2 * jd + 1)
        add(s * c1, 2 * jd + 1, 2 * jp)
        add(-s * c2, 2 * jd, 2 * jp)
    return A


def test_majorana_matrix_matches_term_loop():
    # the same sums in the same order: equal to the last bit
    for L in range(1, 9):
        for b in (0, 1):
            j_max = L if b else max(1, L - 1)
            for v in ([0.0] if L == 1 else [0.0, -0.4, 0.7, 4.0, math.inf]):
                for j in sorted({1, max(1, L // 2), j_max}):
                    p = ModelParams(L=L, b=b, v=v, j=j)
                    for parity in (1, -1):
                        got = _majorana_matrix(p, parity)
                        want = _majorana_matrix_by_terms(p, parity)
                        assert got.tobytes() == want.tobytes(), (L, b, v, j, parity)


@pytest.mark.parametrize("L", [31, 64, 128])
def test_free_fermion_energy_gap_matches_majorana_oracle(L):
    # past the dense oracle's reach: the same Majorana matrices, solved by a
    # complex eigensolver and a Parlett-Reid Pfaffian in place of one real
    # Householder reduction
    branches = set()
    for b in (0, 1):
        j_max = L if b else L - 1
        for v in (0.0, 0.7, 4.0, math.inf):
            for j in sorted({1, L // 2, j_max}):
                p = ModelParams(L=L, b=b, v=v, j=j)
                if b == 0:
                    levels, _ = oracles.majorana_levels(_majorana_matrix(p, 1))
                else:
                    levels = []
                    for parity in (1, -1):
                        A = _majorana_matrix(p, parity)
                        # the matrix's own sector, and the other one; a ring
                        # sector's vacuum lies outside it only at a zero mode
                        for s in (1, -1):
                            want, vac_parity = oracles.majorana_levels(A, s)
                            got = _lowest_levels(A, s)
                            assert got == pytest.approx(want, rel=1e-12, abs=0), (v, j, s)
                            if vac_parity != 0:  # Pf(A) != 0: the branch is sharp
                                branches.add(vac_parity == s)
                            if s == parity:
                                levels += want
                    levels.sort()
                energy, gap = ground_energy_gap(p)
                assert energy == pytest.approx(levels[0], rel=1e-12, abs=0), (b, v, j)
                assert gap == pytest.approx(levels[1] - levels[0], abs=1e-10), (b, v, j)
    assert branches == {True, False}  # the vacuum in and out of the sector


def test_free_fermion_energy_gap_single_site():
    # [TRIVIAL] H = -X has levels -1 and +1
    assert ground_energy_gap(ModelParams(L=1, b=0)) == (-1.0, 2.0)


def test_energy_scan_rows():
    rows = energy_scan(4, 0, [0.0, 0.5, 4.0])
    assert [r[0] for r in rows] == [0.0, 0.5, 4.0]
    for v, x, e, gap in rows:
        assert x == pytest.approx(4 * math.exp(-4 * v), rel=1e-15)
        assert gap > 0
    assert rows[0][2] == pytest.approx(
        exact_ground(ModelParams(L=4, b=0)).ground_energy
    )


def test_parameter_validation():
    with pytest.raises(ValueError):
        ModelParams(L=4, b=2)
    with pytest.raises(ValueError):
        ModelParams(L=4, b=0, j=0)
    with pytest.raises(ValueError):
        ModelParams(L=4, b=0, j=4)  # wrap bond needs b = 1
    ModelParams(L=4, b=1, j=4)
    with pytest.raises(ValueError):
        ModelParams(L=1, b=0, v=0.5)
    with pytest.raises(ValueError):
        ModelParams(L=4, v=math.nan)
    with pytest.raises(ValueError):
        energy_scan(4, 0, [math.nan])  # +-inf are scan points, NaN is not


def test_default_defect_sits_mid_chain():
    assert ModelParams(L=12).j == 6
    assert ModelParams(L=5).j == 2
