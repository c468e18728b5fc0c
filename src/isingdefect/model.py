"""Ising chain with a tunable impurity bond and its free-fermion spectrum.

H(v) = -sum_{i<L} Z_i Z_{i+1} - sum_i X_i - b Z_L Z_1
       + c1(v) (Z_j Z_{j+1} + X_j) + c2(v) Y_j Z_{j+1}

with c1 = 2 sinh^2(v)/cosh(2v) and c2 = sinh(2v)/cosh(2v) = tanh(2v).
b = 1 closes the ring, b = 0 leaves it open. v = 0 is the clean critical
chain; v -> infinity drives the impurity to the self-dual defect point where
both coefficients are exactly 1 (accepted as the math.inf sentinel). The
defect label j is 1-based (the impurity couples sites j and j+1); code
subtracts 1 internally. For b = 1 the wrap bond j = L is permitted.

Energies are in units of the bulk couplings (J = h = 1), dimensionless.

Every term of H(v) is a Majorana bilinear under Jordan-Wigner, so the ground
energy and gap follow from a real 2L x 2L matrix per fermion-parity sector
(`ground_energy_gap`), with no 2^L x 2^L matrix built. One real Householder
reduction of each matrix to tridiagonal form gives both the mode energies
and the sector's vacuum parity: O(L^3) for a ring, whose wrap bond fills
the matrix in, and much less for a banded open chain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paulis import PauliString, WeightedPauliSum


@dataclass(frozen=True)
class ModelParams:
    L: int
    b: int = 0
    v: float = 0.0
    j: int | None = None  # defaults to L // 2

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("L must be positive")
        if self.b not in (0, 1):
            raise ValueError("b must be 0 or 1")
        if math.isnan(self.v):
            raise ValueError("v must be a number or +-inf, not NaN")
        if self.j is None:
            object.__setattr__(self, "j", max(1, self.L // 2))
        j_max = self.L if self.b == 1 else self.L - 1
        if self.L == 1:
            if self.v != 0.0:
                raise ValueError("single site admits no impurity bond")
        elif not 1 <= self.j <= j_max:
            raise ValueError(f"defect label j={self.j} outside 1..{j_max}")

    @property
    def boundary(self):
        return "periodic" if self.b == 1 else "open"


def defect_coefficients(v: float) -> tuple[float, float]:
    """(c1, c2); c1 written as 1 - 1/cosh(2v) to stay finite for large v."""
    if v == math.inf:
        return 1.0, 1.0
    try:
        c1 = 1.0 - 1.0 / math.cosh(2 * v)
    except OverflowError:
        c1 = 1.0
    return c1, math.tanh(2 * v)


def build_hamiltonian(p: ModelParams) -> WeightedPauliSum:
    L = p.L
    H = WeightedPauliSum(L)
    for i in range(L - 1):
        H.add(-1.0, PauliString.from_ops({i: "Z", i + 1: "Z"}))
    for i in range(L):
        H.add(-1.0, PauliString.from_ops({i: "X"}))
    if p.b == 1 and L > 1:
        H.add(-1.0, PauliString.from_ops({L - 1: "Z", 0: "Z"}))
    c1, c2 = defect_coefficients(p.v)
    if c1 != 0.0 or c2 != 0.0:
        jd = p.j - 1
        jp = (jd + 1) % L
        H.add(c1, PauliString.from_ops({jd: "Z", jp: "Z"}))
        H.add(c1, PauliString.from_ops({jd: "X"}))
        H.add(c2, PauliString.from_ops({jd: "Y", jp: "Z"}))
    return H


def _majorana_matrix(p: ModelParams, parity: int) -> np.ndarray:
    """Real antisymmetric A with H = (i/4) sum_mn A_mn c_m c_n on the sector
    where P = prod_i X_i equals `parity`, over c = (a_1, b_1, a_2, b_2, ...).

    X_i = i a_i b_i, Z_i Z_{i+1} = i b_i a_{i+1} and Y_j Z_{j+1} = -i a_j a_{j+1};
    a term across the Z_L Z_1 bond also carries -P from the Jordan-Wigner
    string.
    """
    L = p.L
    # each term w * i c_m c_n puts 2w at (m, n); A is U - U^T
    U = np.zeros((2 * L, 2 * L))
    k = np.arange(2 * L - 1)
    U[k, k + 1] = -2.0  # -X_i on even k, -Z_i Z_{i+1} on odd k
    if p.b == 1 and L > 1:
        U[2 * L - 1, 0] = 2.0 * parity  # -Z_L Z_1 = P i b_L a_1
    c1, c2 = defect_coefficients(p.v)
    if c1 != 0.0 or c2 != 0.0:
        jd = p.j - 1
        jp = (jd + 1) % L
        s = -parity if jp == 0 else 1.0
        U[2 * jd, 2 * jd + 1] += 2.0 * c1
        U[2 * jd + 1, 2 * jp] += 2.0 * (s * c1)
        U[2 * jd, 2 * jp] += 2.0 * (-s * c2)
    return U - U.T


def _lowest_levels(A: np.ndarray, parity: int | None) -> tuple[float, float]:
    """Two lowest levels of (i/4) c^T A c among states of the given parity
    (any parity when None), from one real Householder reduction of A.

    LAPACK dgehrd brings A to its Hessenberg form A = Q T Q^T, which for an
    antisymmetric A is tridiagonal with zero diagonal. The levels are E_vac
    plus sums of mode energies eps_k, the positive eigenvalues of iT. The
    diagonal unitary diag(i^k) maps iT to a real symmetric tridiagonal
    matrix with zero diagonal and off-diagonal -T[k, k+1]; its spectrum does
    not depend on the signs of the off-diagonal, and dsterf returns it in
    O(L^2). The Fock vacuum has parity (-1)^L sign Pf(A), and Pf(A) is
    det(Q) Pf(T): Q is a product of Householder reflectors, each of
    determinant -1 unless its tau is 0, and Pf(T) is the product of T[0, 1],
    T[2, 3], ... A zero mode makes Pf(A) = 0, and then both branches below
    give the same levels.
    """
    from scipy.linalg.lapack import dgehrd, dsterf

    n = A.shape[0]
    T, tau, _ = dgehrd(A)
    t = np.diag(T, 1)
    eps, info = dsterf(np.zeros(n), t)
    if info:
        raise np.linalg.LinAlgError(f"dsterf left {info} off-diagonal entries unconverged")
    eps = eps[n // 2:]
    e_vac = -0.5 * float(eps.sum())
    if parity is None:
        return e_vac, e_vac + eps[0]
    pf_sign = (-1) ** np.count_nonzero(tau) * np.prod(np.sign(t[::2]))
    if (-1) ** (n // 2) * pf_sign == parity:
        return e_vac, e_vac + eps[0] + eps[1]
    return e_vac + eps[0], e_vac + eps[1]


def ground_energy_gap(p: ModelParams) -> tuple[float, float]:
    """(ground energy, gap to the first excited level) of H(v), in O(L^3).

    An open chain is one quadratic form; a ring is two, one per sector of
    P = prod X_i, merged into one spectrum.
    """
    if p.b == 0 or p.L == 1:  # a single site has no wrap bond
        levels = _lowest_levels(_majorana_matrix(p, 1), None)
    else:
        levels = sorted(
            e for parity in (1, -1)
            for e in _lowest_levels(_majorana_matrix(p, parity), parity)
        )
    return float(levels[0]), float(levels[1] - levels[0])


def energy_scan(L: int, b: int, v_list, j: int | None = None):
    """Rows of (v, L/l_B, ground_energy, gap) with l_B = e^{4v}; v = inf is
    the self-dual defect point, where L/l_B = 0."""
    rows = []
    for v in v_list:
        energy, gap = ground_energy_gap(ModelParams(L=L, b=b, v=float(v), j=j))
        try:
            ratio = L * math.exp(-4.0 * v)
        except OverflowError:  # v far below zero
            ratio = math.inf
        rows.append((float(v), ratio, energy, gap))
    return rows
