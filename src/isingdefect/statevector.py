"""Dense statevector kernel: states, Pauli rotations, Pauli sums.

Amplitudes are flat complex128 arrays with qubit 0 as the least significant
bit of the basis index. Rotations use the convention R_O(phi) = exp(-i phi O)
with no half-angle factor, so d/dphi R = (-iO) R and derivative insertions
are exactly -iO. Every generator is a PauliString, hermitian by
construction, so every rotation is unitary.

The public API reads StateVector values. The _raw helpers work on arrays
whose last axis is the Hilbert dimension (rotations in place), so a
(k, 2^n) batch evolves through a gate in one vectorized call, reading a
Pauli string's index and sign rows from `paulis.pauli_table`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paulis import _PHASES, PauliString, WeightedPauliSum, pauli_table


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if np.shape(self.amplitudes) != (1 << self.n_qubits,):
            raise ValueError(f"register size mismatch: {self.n_qubits} qubits, amplitudes "
                             f"of shape {np.shape(self.amplitudes)}")


@dataclass(frozen=True)
class RotationGate:
    """exp(-i * angle * generator) for a (hermitian) Pauli string; a sign
    on the generator is a sign on the angle."""

    generator: PauliString
    angle: float

    def inverse(self):
        return RotationGate(self.generator, -self.angle)


def plus_state(n: int) -> StateVector:
    """|+>^n, every amplitude 2^(-n/2)."""
    if not 1 <= n <= 28:
        raise ValueError("qubit count out of supported range 1..28")
    dim = 1 << n
    amps = np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    return StateVector(n, amps)


def _pair_view(batch: np.ndarray, site: int, dim: int) -> np.ndarray:
    """View (..., dim) as (..., high, 2, low), the 2-axis being `site`'s bit."""
    return batch.reshape(batch.shape[:-1] + (dim >> (site + 1), 2, -1))


def pauli_apply_raw(batch: np.ndarray, string: PauliString) -> np.ndarray:
    """Return string = i^e X^x Z^z applied to every state along the last
    axis (new array)."""
    index, signs = pauli_table(string.x, string.z, batch.shape[-1])
    out = batch.copy() if index is None else np.take(batch, index, axis=-1)
    if string.z:
        out *= signs
    if string.e:
        out *= _PHASES[string.e]
    return out


def rotation_apply_raw(batch: np.ndarray, gate: RotationGate) -> None:
    """In-place exp(-i angle G) on every state along the last axis."""
    rotated = pauli_apply_raw(batch, gate.generator)
    batch *= np.cos(gate.angle)
    batch += (-1j * np.sin(gate.angle)) * rotated


def sum_apply_raw(amps: np.ndarray, obs: WeightedPauliSum) -> np.ndarray:
    """obs @ amps for a weighted Pauli sum (new array), from `obs.grouped()`."""
    diag, xsites, rest = obs.grouped()
    dim = amps.shape[-1]
    out = amps * diag
    for site, coeff in xsites:
        # X_site swaps the two halves of each amplitude pair
        _pair_view(out, site, dim)[...] += coeff * _pair_view(amps, site, dim)[..., ::-1, :]
    for coeff, string in rest:
        term = pauli_apply_raw(amps, string)
        term *= coeff
        out += term
    return out


def sum_expectation_raw(batch: np.ndarray, obs: WeightedPauliSum) -> np.ndarray:
    """Re <b|obs|b> for every state b along the last axis, without forming
    obs @ batch: sum |b|^2 d, then 2 c Re<b0|b1> per X site on the real view
    of its amplitude pairs (no copy), then the rest of `obs.grouped()`."""
    diag, xsites, rest = obs.grouped()
    dim = batch.shape[-1]
    B = np.ascontiguousarray(batch).reshape(-1, dim)
    R = B.view(np.float64)  # re, im interleaved
    sq = R.reshape(-1, dim, 2)
    vals = np.einsum("ijk,ijk,j->i", sq, sq, diag)
    for site, coeff in xsites:
        # bit `site` of a complex index is bit site + 1 of the real index
        pairs = _pair_view(R, site + 1, 2 * dim)
        vals += 2.0 * coeff * np.einsum("ijk,ijk->i", pairs[:, :, 0], pairs[:, :, 1])
    for coeff, string in rest:
        vals += (coeff * np.vecdot(B, pauli_apply_raw(B, string))).real
    return vals.reshape(batch.shape[:-1])


def expectation(state: StateVector, obs: WeightedPauliSum) -> float:
    if not obs.is_hermitian():
        raise ValueError("observable must be hermitian")
    if obs.n_qubits != state.n_qubits:
        raise ValueError("register size mismatch")
    return float(sum_expectation_raw(state.amplitudes, obs))


def pauli_expectation(state: StateVector, string: PauliString) -> float:
    """<psi| string |psi> for a single Pauli string."""
    if string.max_site() >= state.n_qubits:
        raise ValueError("string site out of range")
    val = np.vdot(state.amplitudes, pauli_apply_raw(state.amplitudes, string))
    assert abs(val.imag) < 1e-10
    return float(val.real)
