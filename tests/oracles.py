"""Independent oracles used by the test suite.

Everything here is built from first principles with plain numpy and scipy
(kron products, eigensolvers, matrix exponentials) and deliberately avoids
the package's own kernels, so tests compare two independent routes to each
number; of the package it reads only the `ModelParams` and `StateVector`
containers, and a Pauli sum's terms in `pauli_map`. The Ising Hamiltonian
is assembled once, as a `scipy.sparse` matrix, and its ground state comes
from ARPACK's Lanczos (`eigsh`), which reaches past the sizes a dense
eigensolver can afford.
Site 0 is the least significant bit, matching the package convention.
"""
import math
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import eigsh

from isingdefect.model import ModelParams
from isingdefect.statevector import StateVector

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def _factors(ops, L):
    """The 2x2 factors of the Pauli string ops ({site: letter}, 0-based),
    site 0 the rightmost."""
    return [PAULI[ops.get(i, "I")] for i in range(L - 1, -1, -1)]


def kron_chain(ops, L):
    """ops: {site: letter}, 0-based; site 0 is the rightmost kron factor."""
    return reduce(np.kron, _factors(ops, L))


def sparse_chain(ops, L):
    """`kron_chain` as a CSR matrix, built with `scipy.sparse.kron`."""
    return reduce(lambda a, b: scipy.sparse.kron(a, b, format="csr"), _factors(ops, L),
                  scipy.sparse.identity(1, format="csr"))


def pauli_mean(psi, ops):
    """<psi| P |psi> for the Pauli string ops ({site: letter}) on the
    L-qubit state psi, from its `kron_chain` matrix."""
    L = psi.size.bit_length() - 1
    return float(np.real(psi.conj() @ kron_chain(ops, L) @ psi))


def sparse_hamiltonian(L, b, v, j):
    """Ising chain with boundary coupling b and impurity of strength v at
    the bond (j, j+1), j 1-based, as a sparse matrix."""
    H = scipy.sparse.csr_matrix((2**L, 2**L), dtype=complex)
    for i in range(L - 1):
        H -= sparse_chain({i: "Z", i + 1: "Z"}, L)
    for i in range(L):
        H -= sparse_chain({i: "X"}, L)
    if b:
        H -= sparse_chain({L - 1: "Z", 0: "Z"}, L)
    if v == np.inf:
        c1, c2 = 1.0, 1.0
    else:
        c1 = 2 * np.sinh(v) ** 2 / np.cosh(2 * v)
        c2 = np.sinh(2 * v) / np.cosh(2 * v)
    jd = j - 1
    jp = (jd + 1) % L
    H += c1 * (sparse_chain({jd: "Z", jp: "Z"}, L) + sparse_chain({jd: "X"}, L))
    H += c2 * sparse_chain({jd: "Y", jp: "Z"}, L)
    return H


def dense_hamiltonian(L, b, v, j):
    """`sparse_hamiltonian` as a dense array."""
    return sparse_hamiltonian(L, b, v, j).toarray()


def dense_ground(H):
    """(energy, state, gap) from the two lowest eigenpairs of LAPACK's dense
    Hermitian eigensolver."""
    w, V = scipy.linalg.eigh(H, subset_by_index=(0, 1))
    return w[0], V[:, 0], w[1] - w[0]


def sparse_ground(H):
    """(energy, state, gap) from the two lowest eigenpairs of ARPACK's
    Lanczos iteration, run to machine precision from a fixed complex start
    vector; H needs at least 4 rows."""
    rng = np.random.default_rng(0)
    start = rng.standard_normal(H.shape[0]) + 1j * rng.standard_normal(H.shape[0])
    w, V = eigsh(H, k=2, which="SA", tol=0, v0=start)
    lo, hi = np.argsort(w)  # eigsh does not always return them ascending
    return w[lo], V[:, lo], w[hi] - w[lo]


class Ground(NamedTuple):
    ground_energy: float
    ground_state: StateVector
    gap: float


def exact_ground(p: ModelParams) -> Ground:
    """Ground energy, state (up to phase) and gap of the model `p`: Lanczos
    on the sparse Hamiltonian, or the dense solver for a single site."""
    H = sparse_hamiltonian(p.L, p.b, p.v, p.j)
    if H.shape[0] < 4:
        energy, psi, gap = dense_ground(H.toarray())
    else:
        energy, psi, gap = sparse_ground(H)
    return Ground(float(energy), StateVector(p.L, psi), float(gap))


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


def pfaffian(A):
    """Pf(A) of a real antisymmetric A by Parlett-Reid elimination: pivot the
    largest entry of column k below row k into row k+1, then clear column k
    with a congruence, so Pf(A) is the product of the pivots A[k, k+1] and
    one -1 per row swap."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if n % 2:
        return 0.0
    pf = 1.0
    for k in range(0, n - 1, 2):
        r = k + 1 + int(np.argmax(np.abs(A[k + 1:, k])))
        if r != k + 1:
            A[[k + 1, r]] = A[[r, k + 1]]
            A[:, [k + 1, r]] = A[:, [r, k + 1]]
            pf = -pf
        pivot = A[k, k + 1]
        if pivot == 0.0:
            return 0.0
        pf *= pivot
        tau = A[k, k + 2:] / pivot
        col = A[k + 2:, k + 1]
        A[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return pf


def majorana_levels(A, parity=None):
    """((lowest, next) level, vacuum parity) of the fermion bilinear
    (i/4) c^T A c, A real antisymmetric 2L x 2L, among the states of the
    given fermion parity (any parity when None).

    The mode energies eps_k are the positive eigenvalues of the hermitian iA,
    from numpy's complex eigensolver; every level is E_vac = -sum(eps)/2 plus
    a sum of eps_k, and each mode flips the parity of the Fock vacuum,
    (-1)^L sign Pf(A) (Pf from `pfaffian`)."""
    n = A.shape[0]
    eps = np.linalg.eigvalsh(1j * A)[n // 2:]
    vac = -0.5 * eps.sum()
    vac_parity = (-1) ** (n // 2) * np.sign(pfaffian(A))
    if parity is None:
        levels = (vac, vac + eps[0])
    elif vac_parity == parity:
        levels = (vac, vac + eps[0] + eps[1])
    else:
        levels = (vac + eps[0], vac + eps[1])
    return levels, vac_parity


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


# Pauli sums as {(x, z): coefficient} maps, keyed like `paulis.PauliString`:
# the symbolic route to the loop operator and its commutators, exponential
# in L and checked against the package's one dense converter.
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


def product(a, b):
    """The operator product a b. Per site XY = iZ, YZ = iX and ZX = iY, the
    reversed orders take -i, and equal letters or an identity 1."""
    out = {}
    for (ax, az), ca in a.items():
        xa, ya, za = ax & ~az, ax & az, az & ~ax
        for (bx, bz), cb in b.items():
            xb, yb, zb = bx & ~bz, bx & bz, bz & ~bx
            k = (((xa & yb) | (ya & zb) | (za & xb)).bit_count()
                 - ((ya & xb) | (za & yb) | (xa & zb)).bit_count())
            key = (ax ^ bx, az ^ bz)
            out[key] = out.get(key, 0j) + ca * cb * _PHASES[k % 4]
    return out


def add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0j) + c
    return out


def scale(a, factor):
    return {key: factor * c for key, c in a.items()}


def dagger(a):
    """Strings are hermitian: only the coefficients conjugate."""
    return {key: c.conjugate() for key, c in a.items()}


def norm(a):
    """Sum of |coefficients|."""
    return sum(abs(c) for c in a.values())


def commutator(a, b):
    return add(product(a, b), scale(product(b, a), -1.0))


def commutator_norm(a, b):
    return norm(commutator(a, b))


def pauli_map(H):
    """The map of a package `WeightedPauliSum`."""
    return {(string.x, string.z): c for c, string in H.terms()}


def dense(a, n):
    """The matrix of map a on n qubits; per site, bits x + 2z index IXZY."""
    return sum((c * kron_chain({i: "IXZY"[(x >> i & 1) + 2 * (z >> i & 1)] for i in range(n)}, n)
                for (x, z), c in a.items()), np.zeros((1 << n, 1 << n), complex))


def braid_sum(k, inverse=False):
    """`dense_braid(k, L, inverse)` as a map: q^{+-1} (cos I -+ i sin P)."""
    q = complex(Q_BRAID)
    phase, angle = (1 / q, math.pi / 4) if inverse else (q, -math.pi / 4)
    key = (1 << (k - 1) // 2, 0) if k % 2 else (0, 3 << (k // 2 - 1))
    return {(0, 0): phase * math.cos(angle), key: phase * (-1j) * math.sin(angle)}


def loop_sum(L):
    """`dense_ybar(L)` expanded in full: up to 4^L terms, so guarded to L <= 8."""
    if L > 8:
        raise ValueError("symbolic expansion guarded to L <= 8")
    braids = reduce(product, [braid_sum(k, inverse=True) for k in range(1, 2 * L)])
    half = scale(braids, (-complex(Q_BRAID)) ** L)
    return add(half, dagger(half))


def sector_projector(L):
    """P_+ = (1 + prod_i X_i)/2, the spin-flip-even projector."""
    return {(0, 0): 0.5, ((1 << L) - 1, 0): 0.5}


def controlled(U):
    """|0><0| x 1 + |1><1| x U: U controlled by an ancilla on the top wire,
    the leftmost kron factor."""
    low, high = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return np.kron(low, np.eye(U.shape[0])) + np.kron(high, U)


def ancilla_mean(state, letter):
    """<sigma^letter> of the top-wire ancilla of an (L+1)-qubit state."""
    n = state.size.bit_length() - 1
    return float(np.real(state.conj() @ kron_chain({n - 1: letter}, n) @ state))


def loop_ancilla_state(psi):
    """The loop operator's ancilla test on an L-qubit state psi: |+>_anc x
    |psi>, then the controlled (-q)^L phase and the controlled inverse
    braids, g_{2L-1}^-1 first and g_1^-1 last, each from `dense_braid`.
    Its ancilla X mean is Re (-q)^L <psi| g_1^-1 ... g_{2L-1}^-1 |psi>."""
    L = psi.size.bit_length() - 1
    state = np.kron(np.full(2, 2**-0.5), psi)
    state = controlled((-Q_BRAID) ** L * np.eye(2**L)) @ state
    for k in range(2 * L - 1, 0, -1):
        state = controlled(dense_braid(k, L, inverse=True)) @ state
    return state


def _ansatz_layout(L, N, boundary):
    """Gate supports in firing order, per layer: ZZ bonds with the wrap bond
    last, then X on every site, then Z on every site."""
    layer = [{i: "Z", i + 1: "Z"} for i in range(L - 1)]
    if boundary == "periodic":
        layer.append({L - 1: "Z", 0: "Z"})
    layer += [{i: "X"} for i in range(L)] + [{i: "Z"} for i in range(L)]
    return layer * N


def dense_ansatz(L, N, boundary, params):
    """(psi, D) for the layered ansatz from dense kron-chain matrices:
    psi = U |+>^L and D[p] = U_>p (-i O_p) U_<=p |+>^L.

    The gate layout is rebuilt here (`_ansatz_layout`), and each gate is
    cos t I - i sin t O, so no package code enters."""
    ops = [kron_chain(o, L) for o in _ansatz_layout(L, N, boundary)]
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


def ancilla_test_means(L, N, boundary, params, terms):
    """[(circuit_id, basis, mean)] of the QNG gradient and metric Hadamard
    tests, each run as its own (L+1)-qubit circuit with dense matrices.

    The ancilla is the top wire (site L), starts in |+> with the register,
    and controls its insertions on the |1> branch. terms: [(c, ops)] of H
    with ops a {site: letter} map; tests of zero terms are skipped. Order:
    grad:p{p}:t{t} (X; -i O_p after gate p, h_t after the last gate), then
    metric:y:q{q} (Y; -i O_q after gate q), then metric:x:p{p}q{q} for
    q >= p (X; -i O_p after gate p, +i O_q after gate q)."""
    n = L + 1
    dim = 2**n
    layout = _ansatz_layout(L, N, boundary)
    if len(params) != len(layout):
        raise ValueError("parameter count does not match the layout")
    gates = [dense_rotation(kron_chain(o, n), t) for o, t in zip(layout, params)]

    def run(state, start, stop):
        for U in gates[start:stop]:
            state = U @ state
        return state

    plus = np.full(dim, dim**-0.5, dtype=complex)
    P = len(gates)
    out = []
    for p in range(P):
        state = run(plus, 0, p + 1)
        state = controlled(-1j * kron_chain(layout[p], L)) @ state
        state = run(state, p + 1, P)
        for t, (c, ops) in enumerate(terms):
            if c != 0.0:
                out.append((f"grad:p{p}:t{t}", "X",
                            ancilla_mean(controlled(kron_chain(ops, L)) @ state, "X")))
    for q in range(P):
        state = controlled(-1j * kron_chain(layout[q], L)) @ run(plus, 0, q + 1)
        out.append((f"metric:y:q{q}", "Y", ancilla_mean(state, "Y")))
    for p in range(P):
        state = controlled(-1j * kron_chain(layout[p], L)) @ run(plus, 0, p + 1)
        for q in range(p, P):
            state = run(state, q, q + 1) if q > p else state
            closed = controlled(1j * kron_chain(layout[q], L)) @ state
            out.append((f"metric:x:p{p}q{q}", "X", ancilla_mean(closed, "X")))
    return out


def _chain(L):
    """`kron_chain` up to L = 6, where dense products are the faster, and
    `sparse_chain` beyond: at L = 10 one gate's 15 dense error matrices
    would take 240 MB."""
    return kron_chain if L <= 6 else sparse_chain


@lru_cache(maxsize=32)
def _gate_errors(generator, L):
    """The 15 (3 for one site) non-identity Paulis on the generator support,
    in the trajectory engine's pick order: the lower site's letter outer,
    over I, X, Y, Z."""
    sites = sorted(generator.ops)
    letters = "IXYZ"
    chain = _chain(L)
    if len(sites) == 1:
        return [chain({sites[0]: la}, L) for la in letters[1:]]
    a, b = sites
    return [chain({s: l for s, l in ((a, la), (b, lb)) if l != "I"}, L)
            for la in letters for lb in letters if la + lb != "II"]


def _gate_matrices(circuit, p2, p1):
    """(U, p, error matrices) per gate; p2 on two-site gates, p1 otherwise."""
    L = circuit.n_qubits
    chain = _chain(L)
    eye = chain({}, L)
    out = []
    for g in circuit.gates:
        gen = g.generator
        p = p2 if len(gen.ops) == 2 else p1
        U = np.cos(g.angle) * eye - 1j * np.sin(g.angle) * chain(gen.ops, L)
        out.append((U, p, _gate_errors(gen, L) if p > 0 else None))
    return out


def _observable_matrix(obs):
    """Matrix of a WeightedPauliSum from its letters-form terms."""
    L = obs.n_qubits
    return sum(c * _chain(L)(s.ops, L) for c, s in obs.terms())


def trajectory_values(circuit, obs, p2, p1, trajectories, seed=0, stream=0, chunk=2048):
    """Per-trajectory <obs> values of the stochastic-Pauli trajectory
    estimator, one row and one gate at a time with dense matrices (sparse
    past L = 6).

    Chunk c draws from default_rng([seed, stream, c]) in circuit order: per
    noisy gate, uniform(rows) against p, then integers(0, n_errors, n_hit)
    for the hit rows in ascending row order."""
    gates = _gate_matrices(circuit, p2, p1)
    O = _observable_matrix(obs)
    dim = 2**circuit.n_qubits
    values = []
    done = 0
    c = 0
    while done < trajectories:
        rows = min(chunk, trajectories - done)
        rng = np.random.default_rng([seed, stream, c])
        states = np.full((rows, dim), dim**-0.5, dtype=complex)
        for U, p, errors in gates:
            states = states @ U.T
            if errors is None:
                continue
            hit = rng.random(rows) < p
            n_hit = int(hit.sum())
            if n_hit == 0:
                continue
            picks = rng.integers(0, len(errors), n_hit)
            for r, e in zip(np.flatnonzero(hit), picks):
                states[r] = errors[e] @ states[r]
        values += [float(np.real(s.conj() @ O @ s)) for s in states]
        done += rows
        c += 1
    return np.array(values)


def channel_expectation(circuit, obs, p2, p1=0.0):
    """Exact channel average of <obs> by density-matrix evolution: after each
    gate U with error probability p, rho -> (1-p) U rho U^dag
    + p/n sum_E E U rho U^dag E^dag over the n = 15 (3 for one site)
    non-identity Paulis E on the gate's support."""
    dim = 2**circuit.n_qubits
    rho = np.full((dim, dim), 1.0 / dim, dtype=complex)
    for U, p, errors in _gate_matrices(circuit, p2, p1):
        rho = U @ rho @ U.conj().T
        if errors is not None:
            rho = (1 - p) * rho + (p / len(errors)) * sum(E @ rho @ E for E in errors)
    return float(np.real(np.trace(_observable_matrix(obs) @ rho)))
