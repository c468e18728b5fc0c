"""Quantum natural gradient with exact statevector arithmetic.

The metric is the real part of

    G_pq = <d_p psi|d_q psi> - <d_p psi|psi><psi|d_q psi>

and the update solves (g + lam I) d = grad, then steps Theta -> Theta - eta d.
Derivative states come from `ansatz.circuit_pass`, one block-fused pass of
the circuit over a (P+1)-row batch instead of P separate circuit runs; the
gradient, the metric and the optimizer all read that batch, and the
optimizer sweeps every iteration into the one batch it holds.

Regularization and step-halving are deterministic safeguards: lam starts at
1e-4 and escalates tenfold when the shifted solve is not positive definite,
and a step that raises the energy by more than 1e-9 is halved up to 8 times
before being rejected outright. A rejected step leaves the state where it
was and ends `optimize`: the next iteration would recompute the same
direction and reject it again. `optimize` returns the last state it
evaluated, and computes no step on its last allowed iteration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ansatz import (
    GROUP_BYTES,
    AnsatzSpec,
    _blocks,
    circuit_pass,
    derivative_sweep,
    gate_generators,
    init_params,
    parameter_count,
    prepare_state,
)
from .model import ModelParams, build_hamiltonian, ground_energy_gap
from .paulis import WeightedPauliSum
from .statevector import (
    RotationGate,
    StateVector,
    expectation,
    pauli_apply_raw,
    plus_state,
    rotation_apply_raw,
    sum_apply_raw,
)


LAM = 1e-4  # initial metric regularization
GRAD_TOL = 1e-6  # gradient norm that counts as converged
REL_TOL = 1e-3  # relative error to the exact ground energy that counts as converged


def derivative_state(spec: AnsatzSpec, params, p: int) -> StateVector:
    """U^p_> (-i O_p) U^p_<= |psi_0>; unit norm because O_p is unitary."""
    P = parameter_count(spec)
    if not 0 <= p < P:
        raise IndexError("parameter index out of range")
    gens = gate_generators(spec)
    state = plus_state(spec.L)
    amps = state.amplitudes
    for k in range(p + 1):
        rotation_apply_raw(amps, RotationGate(gens[k], float(params[k])))
    amps = -1j * pauli_apply_raw(amps, gens[p])
    for k in range(p + 1, P):
        rotation_apply_raw(amps, RotationGate(gens[k], float(params[k])))
    return StateVector(spec.L, amps)


def _overlaps(D, *vectors) -> np.ndarray:
    """(P, k) array of Re<d_p|v> for the k vectors v: one real GEMM of the
    interleaved real views, no conjugated copy of D."""
    P = D.shape[0]
    Dr = D.view(np.float64).reshape(P, -1)
    return Dr @ np.array(vectors).view(np.float64).T


def _gram(D) -> np.ndarray:
    """Re<d_p|d_q>: the plain dot product of the interleaved real views."""
    Dr = D.view(np.float64).reshape(D.shape[0], -1)
    return Dr @ Dr.T


def _metric(D, w) -> np.ndarray:
    """Re G_pq from the derivative rows and w = <d_p psi|psi> as the
    columns (Re, Im), i.e. `_overlaps(D, psi, -1j * psi)`. Exactly
    symmetric: the Gram product runs as a symmetric rank-k update."""
    g = _gram(D)
    g -= np.outer(w[:, 0], w[:, 0]) + np.outer(w[:, 1], w[:, 1])
    return g


def gradient_exact(spec: AnsatzSpec, params, H: WeightedPauliSum) -> np.ndarray:
    """Component p is 2 Re <d_p psi| H |psi>."""
    if not H.is_hermitian():
        raise ValueError("H must be hermitian")
    psi, D = derivative_sweep(spec, params)
    return 2.0 * _overlaps(D, sum_apply_raw(psi, H))[:, 0]


def metric_exact(spec: AnsatzSpec, params) -> np.ndarray:
    psi, D = derivative_sweep(spec, params)
    return _metric(D, _overlaps(D, psi, -1j * psi))


@dataclass
class OptimizerState:
    params: np.ndarray
    iteration: int = 0
    energy: float = math.nan
    grad_norm: float = math.nan
    # why optimize stopped: rel_tol, grad_tol, max_iters, or rejected (set by
    # qng_step, which then leaves the rest of the state as it was, when the
    # full step and all 8 halvings raise the energy)
    stop_reason: str = ""

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("rel_tol", "grad_tol")


def qng_step(state: OptimizerState, grad, metric, eta: float, energy_fn) -> OptimizerState:
    """One natural-gradient update of at most eta, halved while energy_fn
    reads a rise above state.energy."""
    grad = np.asarray(grad, dtype=np.float64)
    metric = np.asarray(metric, dtype=np.float64)
    P = grad.size
    if metric.shape != (P, P):
        raise ValueError("metric dimensions do not match gradient")
    lam = LAM
    shifted = metric.copy()
    for attempt in range(7):
        if attempt:
            lam *= 10
        np.fill_diagonal(shifted, metric.diagonal() + lam)
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        direction = np.linalg.solve(shifted, grad)
        if np.all(np.isfinite(direction)):
            break
    else:
        raise RuntimeError(f"metric solve failed even at lambda={lam:g}")

    for _ in range(9):  # full step plus 8 halvings
        new_params = state.params - eta * direction
        new_energy = energy_fn(new_params)
        if new_energy <= state.energy + 1e-9:
            break
        eta *= 0.5
    else:
        return OptimizerState(state.params, state.iteration, state.energy, state.grad_norm,
                              "rejected")
    return OptimizerState(new_params, state.iteration + 1, new_energy, state.grad_norm,
                          state.stop_reason)


@dataclass
class OptimizeOptions:
    eta: float = 0.05
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.eta < math.inf:  # NaN fails both comparisons
            raise ValueError("eta must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class TraceRow:
    iteration: int
    energy: float
    grad_norm: float
    rel_error: float


def optimize_bytes(spec: AnsatzSpec) -> int:
    """Bytes `optimize` holds at most: the (P+1)-row derivative batch; four
    P x P arrays (the metric with the Gram product's terms, or with the
    step's shifted metric and its factor); the X-block spare, at most
    GROUP_BYTES; and 80 L bytes per amplitude for the cached sign rows of
    the ansatz's Z runs (`ansatz._sign_rows`: at most 4L rows, the first
    bonds, the fields with the next bonds and the last fields), the cached
    flip tables, one X run's derivative gather and a few state vectors.
    Every sweep writes over the one batch."""
    P = parameter_count(spec)
    return (16 * (P + 1) + 80 * spec.L) * 2**spec.L + 32 * P * P + GROUP_BYTES


def optimize(spec: AnsatzSpec, model_params: ModelParams, options: OptimizeOptions | None = None):
    """Ground-state search; returns (final OptimizerState, trace rows)."""
    opts = options or OptimizeOptions()
    if spec.L != model_params.L:
        raise ValueError("ansatz and model sizes differ")
    if spec.boundary != model_params.boundary:
        raise ValueError("ansatz boundary must match the model's")
    H = build_hamiltonian(model_params)
    target = ground_energy_gap(model_params)[0]

    def energy_fn(params):
        return expectation(prepare_state(spec, params), H)

    state = OptimizerState(params=init_params(spec, opts.seed))
    # every sweep writes over the last one's rows, so one batch is held
    batch = np.empty((state.params.size + 1, 1 << spec.L), dtype=np.complex128)
    trace = []
    while True:
        circuit_pass(_blocks(spec), state.params, spec.L, batch)
        psi, D = batch[0], batch[1:]
        hpsi = sum_apply_raw(psi, H)
        energy = float(np.vdot(psi, hpsi).real)
        # columns Re<d_p|psi>, Im<d_p|psi> and Re<d_p|H psi>
        w = _overlaps(D, psi, -1j * psi, hpsi)
        grad = 2.0 * w[:, 2]
        state.energy = energy
        state.grad_norm = float(np.linalg.norm(grad))
        rel = abs(energy - target) / abs(target)
        trace.append(TraceRow(state.iteration, energy, state.grad_norm, rel))
        if rel < REL_TOL:
            state.stop_reason = "rel_tol"
        elif state.grad_norm < GRAD_TOL:
            state.stop_reason = "grad_tol"
        elif len(trace) == opts.max_iters:
            state.stop_reason = "max_iters"
        else:
            state = qng_step(state, grad, _metric(D, w), opts.eta, energy_fn)
        if state.stop_reason:
            return state, trace
