"""Layered variational circuit over the all-plus product state.

Each layer applies, in circuit time order, ZZ-bond rotations on ascending
bonds, then X rotations, then Z rotations on every site:

    U^a = U_Z^a U_X^a U_ZZ^a,   U = U^N ... U^1

Parameters are ordered exactly as the gates fire, layer by layer:
[theta_1..theta_nb, zeta_1..zeta_L, phi_1..phi_L] per layer, where nb is the
bond count (L-1 open, L periodic, the wrap bond Z_L Z_1 last). One angle per
gate, R(t) = exp(-i t G), so the count is (3L-1)N open and 3LN periodic.

One circuit pass, `circuit_pass`, runs block by block, and `apply_run` is
the one executor of a block. Consecutive gates that commute form one block
(`gate_runs`, which `zne` shares for folded gate lists): a diagonal block
(the Z fields of layer a with the ZZ bonds of layer a+1) is one
phase-vector multiply exp(-i sum_p t_p s_p), and an X block (one X rotation
per site) is a few Kronecker factors of at most FACTOR_SITES adjacent sites,
applied by matmul on a reshaped view. A derivative insertion -i O_p
commutes with the rest of its block, so `derivative_sweep` writes all of a
block's derivative rows at once, at the block's end, from the sign rows
`apply_run` returns for a diagonal block.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .paulis import PauliString
from .statevector import (
    RotationGate,
    StateVector,
    _pair_view,
    _zsigns,
    plus_state,
    rotation_apply_raw,
)

_BOUNDARIES = ("open", "periodic")
FACTOR_SITES = 5  # widest Kronecker factor of an X block, in sites
GROUP_BYTES = 1 << 21  # state rows per X-block pass: 2 MB, an L2's worth


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


def gates(spec: AnsatzSpec, params) -> list[RotationGate]:
    gens = gate_generators(spec)
    if len(params) != len(gens):
        raise ValueError(f"expected {len(gens)} parameters, got {len(params)}")
    return [RotationGate(g, float(t)) for g, t in zip(gens, params)]


def gate_runs(generators) -> tuple:
    """Maximal runs of commuting gates as (kind, start, stop, keys): kind "z"
    for consecutive diagonal gates (keys: Z masks), "x" for single-site X
    gates on distinct sites (keys: sites; a repeated site starts a new run),
    "g" for any other generator, one gate per run (keys: the generator)."""
    runs = []
    for p, g in enumerate(generators):
        if g.x == 0:
            kind, key = "z", g.z
        elif g.z == 0 and g.x.bit_count() == 1:
            kind, key = "x", g.x.bit_length() - 1
        else:
            kind, key = "g", g
        last = runs[-1] if runs else None
        if last and last[0] == kind != "g" and (kind == "z" or key not in last[3]):
            last[2] = p + 1
            last[3].append(key)
        else:
            runs.append([kind, p, p + 1, [key]])
    return tuple((kind, start, stop, tuple(keys)) for kind, start, stop, keys in runs)


@lru_cache(maxsize=32)
def _blocks(spec: AnsatzSpec) -> tuple:
    """The ansatz's runs: every gate is a Z or a single-site X rotation."""
    return gate_runs(gate_generators(spec))


@lru_cache(maxsize=None)
def _factor_tables(width: int):
    """Bits of each factor index, and the index XOR table: a tensor product
    of c I - i s X factors has entry (r, c) depending on r ^ c only."""
    m = np.arange(1 << width)
    bits = (m[:, None] >> np.arange(width)) & 1
    return bits, m[:, None] ^ m[None, :]


def _x_block(batch, sites, angles, L: int) -> None:
    """In-place prod_i exp(-i t_i X_i) over distinct sites, one Kronecker
    factor of adjacent sites at a time: the L sites split evenly into the
    fewest factors of at most FACTOR_SITES sites (4+4 at L=8, 5+5 at L=10,
    4+4+4 at L=12). Sites outside the block get angle 0, the identity."""
    full = np.zeros(L)
    full[list(sites)] = angles
    cos, msin = np.cos(full), -1j * np.sin(full)
    count = -(-L // FACTOR_SITES)
    factors = []
    for c in range(count):
        lo = c * L // count
        width = (c + 1) * L // count - lo
        bits, xor = _factor_tables(width)
        k = np.where(bits, msin[lo : lo + width], cos[lo : lo + width]).prod(axis=1)
        factors.append((lo, width, k[xor]))  # symmetric
    # rows go through in groups of at most GROUP_BYTES, which bounds the
    # matmul temporaries; one small product per row and factor keeps each
    # BLAS call single-threaded
    step = max(1, GROUP_BYTES // batch[0].nbytes)
    for r in range(0, batch.shape[0], step):
        group = batch[r : r + step]
        for lo, width, factor in factors:
            if lo == 0:
                view = group.reshape(group.shape[0], -1, 1 << width)
                view[...] = np.matmul(view, factor)
            else:
                view = group.reshape(-1, 1 << width, 1 << lo)
                view[...] = np.matmul(factor, view)


def _z_block(batch, keys, angles, dim: int) -> np.ndarray:
    """In-place exp(-i sum_p t_p Z_p) over diagonal strings (Z masks), as
    one phase-vector multiply; returns the sign rows s_p."""
    signs = np.array([_zsigns(z, dim) for z in keys])
    arg = angles @ signs
    phase = np.empty(dim, dtype=np.complex128)
    phase.real, phase.imag = np.cos(arg), -np.sin(arg)
    batch *= phase
    return signs


def apply_run(batch, run, angles, L: int):
    """In-place gates of one `gate_runs` run on a raw (rows, 2^L) batch;
    `angles` are the run's angles in firing order. Returns a diagonal run's
    sign rows s_p, and None for any other run."""
    kind, _, _, keys = run
    if kind == "z":
        return _z_block(batch, keys, angles, 1 << L)
    if kind == "x":
        _x_block(batch, keys, angles, L)
    else:
        rotation_apply_raw(batch, RotationGate(keys[0], float(angles[0])))
    return None


def circuit_pass(runs, angles, L: int, derivatives: bool = False) -> np.ndarray:
    """Run by run over |+>: row 0 is U|+>. With derivatives, row p+1 is
    U_>p (-i O_p) U_<=p |+>, for runs of Z and single-site X gates."""
    angles = np.asarray(angles, dtype=np.float64)
    if len(angles) != sum(stop - start for _, start, stop, _ in runs):
        raise ValueError("parameter count mismatch")
    dim = 1 << L
    batch = np.empty((len(angles) + 1 if derivatives else 1, dim), dtype=np.complex128)
    batch[0] = plus_state(L).amplitudes
    psi = batch[0]
    for run in runs:
        _, start, stop, keys = run
        # psi and the derivative rows made so far
        signs = apply_run(batch[: start + 1], run, angles[start:stop], L)
        if not derivatives:
            continue
        if signs is not None:
            np.multiply(signs, -1j * psi, out=batch[start + 1 : stop + 1])
        else:  # -i X_site flips the pair axis of a view
            psi_mi = -1j * psi
            for p, site in enumerate(keys, start + 1):
                flipped = _pair_view(psi_mi, site, dim)[..., ::-1, :]
                _pair_view(batch[p], site, dim)[...] = flipped
    return batch


def derivative_sweep(spec: AnsatzSpec, params):
    """(psi, D) with D[p] = d psi / d params[p], all from one circuit pass."""
    batch = circuit_pass(_blocks(spec), params, spec.L, derivatives=True)
    return batch[0], batch[1:]


def prepare_state(spec: AnsatzSpec, params) -> StateVector:
    return StateVector(spec.L, circuit_pass(_blocks(spec), params, spec.L)[0])


def init_params(spec: AnsatzSpec, seed: int = 0) -> np.ndarray:
    """Near-identity start: angles uniform in [-0.01, 0.01]."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.01, 0.01, parameter_count(spec))
