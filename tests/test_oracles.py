"""Self-checks of the test oracles: the sparse Lanczos ground state against
the dense eigensolver, and the oracles' independence from the package."""
import ast
import math
from pathlib import Path

import numpy as np
import pytest

import oracles


@pytest.mark.parametrize("L", range(2, 11))
@pytest.mark.parametrize("b", [0, 1])
def test_sparse_ground_matches_dense_ground(L, b):
    j_max = L if b else L - 1
    for v in (0.0, 0.7, 4.0, math.inf):
        for j in sorted({1, L // 2, j_max}):
            H = oracles.sparse_hamiltonian(L, b, v, j)
            energy, psi, gap = oracles.sparse_ground(H)
            want_energy, want_psi, want_gap = oracles.dense_ground(H.toarray())
            assert abs(energy - want_energy) < 1e-12, (v, j)
            assert abs(gap - want_gap) < 1e-12, (v, j)
            if want_gap > 1e-6:  # a degenerate ground state has no one vector
                assert abs(np.vdot(psi, want_psi)) >= 1 - 1e-12, (v, j)


def _pfaffian_by_expansion(A):
    """Pf(A) = sum_j (-1)^(j+1) A[0, j] Pf(A without rows and columns 0, j)."""
    n = A.shape[0]
    if n == 0:
        return 1.0
    total = 0.0
    for j in range(1, n):
        rest = [k for k in range(1, n) if k != j]
        total += (-1) ** (j + 1) * A[0, j] * _pfaffian_by_expansion(A[np.ix_(rest, rest)])
    return total


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_pfaffian_matches_expansion(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        M = rng.standard_normal((n, n))
        A = M - M.T
        pf = oracles.pfaffian(A)
        assert pf == pytest.approx(_pfaffian_by_expansion(A), rel=1e-12)
        assert pf**2 == pytest.approx(np.linalg.det(A), rel=1e-10)
    assert oracles.pfaffian(np.zeros((n, n))) == 0.0


def test_majorana_levels_match_dense_spectrum():
    # the open critical chain -sum X_i - sum Z_i Z_{i+1} is (i/4) c^T A c
    # with -2 at (2i, 2i+1) for -X_i and at (2i+1, 2i+2) for -Z_i Z_{i+1}
    for L in (2, 3, 4):
        A = np.zeros((2 * L, 2 * L))
        for k in range(2 * L - 1):
            A[k, k + 1] = -2.0
        A -= A.T
        (e0, e1), vac_parity = oracles.majorana_levels(A)
        w = np.linalg.eigvalsh(oracles.dense_hamiltonian(L, 0, 0.0, 1))
        assert (e0, e1 - e0) == pytest.approx((w[0], w[1] - w[0]), abs=1e-12)
        assert vac_parity == 1  # the ground state of -sum X_i - ... has P = +1


def test_oracles_read_only_the_package_containers():
    # an oracle built from the package's kernels would check them against
    # themselves
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "isingdefect" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "isingdefect":
            imported |= {a.name for a in node.names}
    assert imported <= {"ModelParams", "StateVector"}
