"""Layered variational circuit over the all-plus product state.

Each layer applies, in circuit time order, ZZ-bond rotations on ascending
bonds, then X rotations, then Z rotations on every site:

    U^a = U_Z^a U_X^a U_ZZ^a,   U = U^N ... U^1

Parameters are ordered exactly as the gates fire, layer by layer:
[theta_1..theta_nb, zeta_1..zeta_L, phi_1..phi_L] per layer, where nb is the
bond count (L-1 open, L periodic, the wrap bond Z_L Z_1 last). One angle per
gate, R(t) = exp(-i t G), so the count is (3L-1)N open and 3LN periodic.

Every gate is a rotation about a Z string on one or two sites or about X on
one site; `gate_runs` refuses any other. One circuit pass, `circuit_pass`,
runs block by block, and `apply_run` is the one executor of a block.
Consecutive gates that commute form one block (`gate_runs`, which `zne`
shares for folded gate lists): a diagonal block (the Z fields of layer a
with the ZZ bonds of layer a+1) is one phase-vector multiply
exp(-i sum_p t_p s_p), its sign rows s_p stacked per run's strings in
`paulis.pauli_table`, the one owner of every index and sign row. An X
block is P R P, with P = S^dag on every site and R = prod_i (cos t_i Z_i +
sin t_i X_i) real: a few Kronecker factors of at most FACTOR_SITES
adjacent sites, applied by real matmul on the float64 view. A diagonal
block next to an X block multiplies that block's P into its phase vector,
as one multiply by a cached power of P, so between the two the rows hold
P or P^dag times the state. A derivative insertion -i O_p commutes with
the rest of its block, so `derivative_sweep` writes all of a block's
derivative rows at once, at the block's end: from the cached sign rows
`apply_run` returns for a diagonal block, and for an X block as one
gather of the table's X_s Z_s rows, X_s Z_s psi while the rows hold P^dag
and -i X_s psi otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .paulis import PauliString, parity_signs, pauli_table
from .statevector import StateVector

_BOUNDARIES = ("open", "periodic")
FACTOR_SITES = 5  # widest Kronecker factor of an X block, in sites
GROUP_BYTES = 1 << 21  # state rows per X-block pass: 2 MB, an L2's worth
PRODUCT_MACS = 1 << 17  # largest X-block BLAS product, in multiply-adds


@dataclass(frozen=True)
class AnsatzSpec:
    L: int
    N: int
    boundary: str = "open"

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("ansatz needs at least two sites")
        if self.N < 1:
            raise ValueError("need at least one layer")
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}")


def parameter_count(spec: AnsatzSpec) -> int:
    bonds = spec.L if spec.boundary == "periodic" else spec.L - 1
    return spec.N * (bonds + 2 * spec.L)


@lru_cache(maxsize=32)
def gate_generators(spec: AnsatzSpec) -> tuple[PauliString, ...]:
    """Generators in firing order; index p pairs with parameter p."""
    layer = []
    for i in range(spec.L - 1):
        layer.append(PauliString.from_ops({i: "Z", i + 1: "Z"}))
    if spec.boundary == "periodic":
        layer.append(PauliString.from_ops({spec.L - 1: "Z", 0: "Z"}))
    for i in range(spec.L):
        layer.append(PauliString.from_ops({i: "X"}))
    for i in range(spec.L):
        layer.append(PauliString.from_ops({i: "Z"}))
    return tuple(layer * spec.N)


def gate_runs(generators) -> tuple:
    """Maximal runs of commuting gates as (kind, start, stop, keys, shared):
    kind "z" for consecutive Z strings on one or two sites (keys: Z masks),
    "x" for single-site X gates on distinct sites (keys: sites; a repeated
    site starts a new run). Any other generator is refused. An X run is
    P R P with P = S^dag on every site (see `_x_block`); shared = (before,
    after) marks each side where it meets a Z run, and there the Z run
    applies the X run's P."""
    runs = []
    for p, g in enumerate(generators):
        if g.x == 0 and 1 <= g.z.bit_count() <= 2:
            kind, key = "z", g.z
        elif g.z == 0 and g.x.bit_count() == 1:
            kind, key = "x", g.x.bit_length() - 1
        else:
            raise ValueError(f"gate {p} ({g!r}) is neither a Z rotation on one or two "
                             f"sites nor an X rotation on one site")
        last = runs[-1] if runs else None
        if last and last[0] == kind and (kind == "z" or key not in last[3]):
            last[2] = p + 1
            last[3].append(key)
        else:
            runs.append([kind, p, p + 1, [key]])
    meets = [False] + [a[0] != b[0] for a, b in zip(runs, runs[1:])] + [False]
    return tuple((kind, start, stop, tuple(keys), (meets[i], meets[i + 1]))
                 for i, (kind, start, stop, keys) in enumerate(runs))


@lru_cache(maxsize=32)
def _blocks(spec: AnsatzSpec) -> tuple:
    """The ansatz's runs: every gate is a Z or a single-site X rotation."""
    return gate_runs(gate_generators(spec))


@lru_cache(maxsize=None)
def _s_dagger(dim: int, power: int) -> np.ndarray:
    """P^power, P = S^dag on every site: diag((-i)^(power popcount(k))),
    entries exactly +-1 and +-i, read-only."""
    turns = power * np.bitwise_count(np.arange(dim, dtype=np.uint64))
    P = np.array([1, -1j, -1, 1j])[turns & 3]
    P.setflags(write=False)
    return P


@lru_cache(maxsize=None)
def _factor_tables(width: int):
    """Bits of each factor index, the index XOR table and the sign table: a
    tensor product of cos t Z + sin t X factors has entry (r, c) =
    k[r ^ c] (-1)^popcount(r & c), k[m] the product over sites of sin t
    where m has a bit and cos t where it has none."""
    m = np.arange(1 << width)
    bits = (m[:, None] >> np.arange(width)) & 1
    return bits, m[:, None] ^ m[None, :], parity_signs(m, 1 << width)


def _x_block(batch, sites, angles, L: int) -> None:
    """In-place R = prod_i (cos t_i Z_i + sin t_i X_i) over distinct sites:
    exp(-i t X) = S^dag (cos t Z + sin t X) S^dag, so the X rotations are
    P R P, P = S^dag on every site, and `apply_run` places the two P. Sites
    outside the block get angle 0, where the factor is Z and P Z P = 1.
    R is real and symmetric and acts on the float64 view (bit b of a complex
    index is bit b + 1 of a real one), one Kronecker factor of adjacent
    sites at a time: the L sites split evenly into the fewest factors of at
    most FACTOR_SITES sites (4+4 at L=8, 5+5 at L=10, 4+4+4 at L=12). The
    lowest factor acts as R (x) I_2 on rows of the view, the others from the
    left."""
    full = np.zeros(L)
    full[list(sites)] = angles
    cos, sin = np.cos(full), np.sin(full)
    count = -(-L // FACTOR_SITES)
    factors = []
    for c in range(count):
        lo = c * L // count
        width = (c + 1) * L // count - lo
        bits, xor, signs = _factor_tables(width)
        k = np.where(bits, sin[lo : lo + width], cos[lo : lo + width]).prod(axis=1)
        factor = k[xor] * signs  # symmetric
        if lo == 0:
            wide = np.zeros((2 << width, 2 << width))
            wide[::2, ::2] = wide[1::2, 1::2] = factor
            factor = wide
        factors.append((lo, width, factor))
    # rows go through in groups of at most GROUP_BYTES, which bounds the
    # spare buffer each product writes to in turn; every product is real and,
    # up to L = 12, at most PRODUCT_MACS multiply-adds, which keeps each BLAS
    # call single-threaded
    real = batch.view(np.float64)
    step = max(1, GROUP_BYTES // batch[0].nbytes)
    spare = np.empty_like(real[:step])
    for r in range(0, batch.shape[0], step):
        src = group = real[r : r + step]
        dst = spare[: group.shape[0]]
        for lo, width, factor in factors:
            if lo == 0:
                rows = src.size >> (width + 1)
                shape = (-1, min(rows & -rows, PRODUCT_MACS >> (2 * width + 2)), 2 << width)
                np.matmul(src.reshape(shape), factor, out=dst.reshape(shape))
            else:
                shape = (-1, 1 << width, 2 << lo)
                np.matmul(factor, src.reshape(shape), out=dst.reshape(shape))
            src, dst = dst, src
        if src is not group:
            group[...] = src


def _z_block(batch, keys, angles, dim: int, turns: int) -> np.ndarray:
    """In-place P^turns exp(-i sum_p t_p Z_p) over diagonal strings (Z
    masks), as one phase-vector multiply; returns the cached sign rows s_p."""
    signs = pauli_table(0, keys, dim)[1]
    arg = angles @ signs
    phase = np.empty(dim, dtype=np.complex128)
    phase.real, phase.imag = np.cos(arg), -np.sin(arg)
    if turns:
        phase *= _s_dagger(dim, turns)
    batch *= phase
    return signs


def apply_run(batch, run, angles, L: int):
    """In-place gates of one `gate_runs` run on a raw (rows, 2^L) batch;
    `angles` are the run's angles in firing order. Returns a diagonal run's
    sign rows s_p, and None for an X run. A Z run applies the P of the X
    runs it meets, so across such a meeting the rows hold P or P^dag."""
    kind, _, _, keys, (before, after) = run
    if kind == "z":
        return _z_block(batch, keys, angles, 1 << L, before + after)
    if not before:
        batch *= _s_dagger(1 << L, 1)
    _x_block(batch, keys, angles, L)
    if not after:
        batch *= _s_dagger(1 << L, 1)
    return None


def circuit_pass(runs, angles, L: int, batch=None) -> np.ndarray:
    """Run by run over |+>: row 0 is U|+>. Given a (len(angles) + 1)-row
    batch to write into, row p+1 is U_>p (-i O_p) U_<=p |+>; every row is
    written before it is read, so a batch can be reused. Without one, the
    pass makes a one-row batch."""
    angles = np.asarray(angles, dtype=np.float64)
    if len(angles) != (runs[-1][2] if runs else 0):
        raise ValueError("parameter count mismatch")
    dim = 1 << L
    derivatives = batch is not None
    if batch is None:
        batch = np.empty((1, dim), dtype=np.complex128)
    psi = batch[0]
    psi.fill(1.0 / np.sqrt(dim))  # |+>, as `plus_state` writes it
    for run in runs:
        _, start, stop, keys, (_, after) = run
        # psi and the derivative rows made so far
        signs = apply_run(batch[: start + 1], run, angles[start:stop], L)
        if derivatives:
            rows = batch[start + 1 : stop + 1]
            if signs is not None:
                np.multiply(signs, -1j * psi, out=rows)
            else:
                # -i X_s psi; while the rows hold P^dag times the state,
                # P^dag (-i X_s) P = X_s Z_s
                masks = tuple(1 << s for s in keys)
                index, sign = pauli_table(masks, masks, dim)
                np.multiply(psi[index], sign if after else -1j, out=rows)
    return batch


def derivative_sweep(spec: AnsatzSpec, params):
    """(psi, D) with D[p] = d psi / d params[p], all from one circuit pass."""
    batch = np.empty((len(params) + 1, 1 << spec.L), dtype=np.complex128)
    circuit_pass(_blocks(spec), params, spec.L, batch)
    return batch[0], batch[1:]


def prepare_state(spec: AnsatzSpec, params) -> StateVector:
    return StateVector(spec.L, circuit_pass(_blocks(spec), params, spec.L)[0])


def init_params(spec: AnsatzSpec, seed: int = 0) -> np.ndarray:
    """Near-identity start: angles uniform in [-0.01, 0.01]."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.01, 0.01, parameter_count(spec))
