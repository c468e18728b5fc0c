"""Independent dense-matrix oracles used by the test suite.

Everything here is built from first principles with plain numpy (kron
products, eigh, matrix exponentials) and deliberately avoids the package's
own kernels, so tests compare two independent routes to each number.
Site 0 is the least significant bit, matching the package convention.
"""
import numpy as np
from functools import reduce

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def kron_chain(ops, L):
    """ops: {site: letter}, 0-based; site 0 is the rightmost kron factor."""
    mats = [PAULI[ops.get(i, "I")] for i in range(L - 1, -1, -1)]
    return reduce(np.kron, mats)


def dense_hamiltonian(L, b, v, j):
    """Ising chain with boundary coupling b and impurity of strength v at
    the bond (j, j+1), j 1-based."""
    H = np.zeros((2**L, 2**L), dtype=complex)
    for i in range(L - 1):
        H -= kron_chain({i: "Z", i + 1: "Z"}, L)
    for i in range(L):
        H -= kron_chain({i: "X"}, L)
    if b:
        H -= kron_chain({L - 1: "Z", 0: "Z"}, L)
    if v == np.inf:
        c1, c2 = 1.0, 1.0
    else:
        c1 = 2 * np.sinh(v) ** 2 / np.cosh(2 * v)
        c2 = np.sinh(2 * v) / np.cosh(2 * v)
    jd = j - 1
    jp = (jd + 1) % L
    H += c1 * (kron_chain({jd: "Z", jp: "Z"}, L) + kron_chain({jd: "X"}, L))
    H += c2 * kron_chain({jd: "Y", jp: "Z"}, L)
    return H


def dense_ground(H):
    """(energy, state, gap) from numpy's dense eigensolver."""
    w, V = np.linalg.eigh(H)
    return w[0], V[:, 0], w[1] - w[0]


def free_fermion_ground_energy(L):
    """Open critical chain (b=0, v=0) ground energy from the quadratic
    fermion form: single-particle energies are half the singular values of
    A - B with A the hopping/field matrix and B the pairing matrix."""
    A = np.zeros((L, L))
    B = np.zeros((L, L))
    for i in range(L):
        A[i, i] = 2.0
    for i in range(L - 1):
        A[i, i + 1] = A[i + 1, i] = -1.0
        B[i, i + 1] = -1.0
        B[i + 1, i] = +1.0
    eps = 0.5 * np.linalg.svd(A - B, compute_uv=False)
    return -np.sum(eps)


def free_fermion_zz_profile(L):
    """Open critical chain (b=0, v=0) profile [<Z_1 Z_r> for r = 2..L] from
    Majorana two-point functions, with no state vector.

    Majoranas a_i, b_i give X_i = i a_i b_i and Z_i Z_{i+1} = i b_i a_{i+1},
    so H = (1/4) c^T M c over c = (a_1, b_1, a_2, b_2, ...) with M = iA
    hermitian. The ground state has <c_m c_n> = 2 P_+ (P_+ the projector on
    the positive spectrum of M), and Wick's theorem reduces
    <Z_1 Z_r> = <prod_k i b_k a_{k+1}> to the determinant of the leading
    (r-1) x (r-1) block of G_kl = <i b_k a_{l+1}> (Pfeuty 1970)."""
    A = np.zeros((2 * L, 2 * L))
    for i in range(L):
        A[2 * i, 2 * i + 1] = -2.0          # -X_i = -i a_i b_i
    for i in range(L - 1):
        A[2 * i + 1, 2 * i + 2] = -2.0      # -Z_i Z_{i+1} = -i b_i a_{i+1}
    A -= A.T
    w, V = np.linalg.eigh(1j * A)
    upper = V[:, w > 0]
    corr = 2.0 * upper @ upper.conj().T
    G = (1j * corr[1::2, 2::2]).real
    return [float(np.linalg.det(G[:r - 1, :r - 1])) for r in range(2, L + 1)]


def dense_rotation(P, angle):
    """exp(-i angle P) for an involutory hermitian matrix P."""
    dim = P.shape[0]
    return np.cos(angle) * np.eye(dim) - 1j * np.sin(angle) * P


Q_BRAID = 1j * np.exp(1j * np.pi / 4)


def dense_braid(k, L, inverse=False):
    """Braid generator g_k (or its inverse), k 1-based in 1..2L-1."""
    if k % 2 == 1:
        jj = (k + 1) // 2
        P = kron_chain({jj - 1: "X"}, L)
    else:
        jj = k // 2
        P = kron_chain({jj - 1: "Z", jj % L: "Z"}, L)
    if inverse:
        return (1 / Q_BRAID) * dense_rotation(P, np.pi / 4)
    return Q_BRAID * dense_rotation(P, -np.pi / 4)


def dense_ybar(L):
    """(-q)^L g_1^-1 ... g_{2L-1}^-1 + h.c. as a dense matrix."""
    A = np.eye(2**L, dtype=complex)
    for k in range(1, 2 * L):
        A = A @ dense_braid(k, L, inverse=True)
    A = (-Q_BRAID) ** L * A
    return A + A.conj().T


def dense_ansatz(L, N, boundary, params):
    """(psi, D) for the layered ansatz from dense kron-chain matrices:
    psi = U |+>^L and D[p] = U_>p (-i O_p) U_<=p |+>^L.

    The gate layout is rebuilt here (per layer: ZZ bonds with the wrap bond
    last, then X on every site, then Z on every site), and each gate is
    cos t I - i sin t O, so no package code enters."""
    layer = [{i: "Z", i + 1: "Z"} for i in range(L - 1)]
    if boundary == "periodic":
        layer.append({L - 1: "Z", 0: "Z"})
    layer += [{i: "X"} for i in range(L)] + [{i: "Z"} for i in range(L)]
    ops = [kron_chain(o, L) for o in layer * N]
    if len(params) != len(ops):
        raise ValueError("parameter count does not match the layout")
    dim = 2**L
    rots = [dense_rotation(O, t) for O, t in zip(ops, params)]
    prefix = []  # U_<=p |+>
    state = np.full(dim, dim**-0.5, dtype=complex)
    for U in rots:
        state = U @ state
        prefix.append(state)
    D = np.empty((len(ops), dim), dtype=complex)
    suffix = np.eye(dim, dtype=complex)  # U_>p
    for p in range(len(ops) - 1, -1, -1):
        D[p] = suffix @ (-1j * (ops[p] @ prefix[p]))
        suffix = suffix @ rots[p]
    return state, D
