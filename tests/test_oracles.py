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
