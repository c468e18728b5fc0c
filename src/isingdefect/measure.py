"""Ancilla Hadamard tests and Pauli readouts with simulated finite shots.

A test runs on an (L+1)-qubit register, ancilla on the top wire starting in
|+>: controlled insertions act on the ancilla=1 branch only, and measuring
the ancilla in X gives Re<phi_0|phi_1>, in Y Im<phi_0|phi_1>, where
phi_0/phi_1 are the branch states. Every such mean is an overlap of L-qubit
states, so no (L+1)-qubit register is built: `gradient_shot` and
`metric_shot` read theirs from one `ansatz.derivative_sweep` (d_p =
d psi/d theta_p), `observables.ybar_shots` reads the loop overlap, and
each mean is sampled under its circuit id, which names the ancilla basis
(metric:y: ids are the only Y tests):

    grad:p{p}:t{t}    X   Re<psi| h_t |d_p>  = Re<d_p|h_t psi>
    metric:y:q{q}     Y   Im<psi|d_q>        = -Im<d_q|psi>
    metric:x:p{p}q{q} X   Re<d_q|d_p>
    ybar:L{L}         X   Re (-q)^L <psi| g_1^-1 ... g_{2L-1}^-1 |psi>
    pauli:{l}{s}...   X   <psi| P |psi>, P a hermitian Pauli string

The last is a direct readout (`sample_pauli_expectation`; correlators and
re-measured energies draw theirs under corr: and energy: ids). The product
of a bitstring's +/-1 eigenvalues is itself a +/-1 outcome with mean <P>,
so it needs no basis rotation or bitstring draw either.

Shot noise is binomial on the +/-1 outcome. `_sample_pm1` is the one
sampler: an estimator computes the exact means of all its circuits first
and draws them in one batch from one RNG stream, derived from (plan.seed,
sha256 of the batch's ids joined by newlines). A batch's draws therefore
depend only on (seed, its ids in order, its means), so runs are
reproducible; a batch of one id draws from that id's own stream.
analytic=True skips sampling and reports the exact means with zero error
bars.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzSpec, derivative_sweep
from .paulis import PauliString, WeightedPauliSum
from .qng import _gram, _overlaps
from .statevector import StateVector, pauli_apply_raw, pauli_expectation


@dataclass(frozen=True)
class ShotPlan:
    shots: int = 1024
    seed: int = 0
    analytic: bool = False

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class EstimateRecord:
    value: float
    std_error: float
    shots_used: int
    circuit_id: str


def circuit_rng(seed: int, circuit_id: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(circuit_id.encode()).digest()[:8], "big")
    return np.random.default_rng([seed, tag])


def _sample_pm1(means, plan: ShotPlan, ids, records: list | None = None) -> np.ndarray:
    """Sampled values of the +/-1 outcomes with the given exact means, one
    per circuit id, from one binomial call; records go to `records` in id
    order. An analytic plan returns the means unchanged."""
    means = np.asarray(means, dtype=float)
    if plan.analytic:
        values, errors, shots = means, np.zeros_like(means), 0
    else:
        p_plus = np.clip(0.5 * (1.0 + means), 0.0, 1.0)
        rng = circuit_rng(plan.seed, "\n".join(ids))
        values = 2.0 * rng.binomial(plan.shots, p_plus) / plan.shots - 1.0
        errors = np.sqrt(np.maximum(0.0, 1.0 - values * values) / plan.shots)
        shots = plan.shots
    if records is not None:
        records.extend(EstimateRecord(v, e, shots, cid)
                       for v, e, cid in zip(values.tolist(), errors.tolist(), ids))
    return values


def gradient_shot(spec: AnsatzSpec, params, H: WeightedPauliSum, plan: ShotPlan,
                  records: list | None = None) -> np.ndarray:
    """Component p = 2 sum_t c_t m_pt over per-term X-basis tests, with
    means m_pt = Re<d_p|h_t psi>; terms with c_t = 0 are not measured."""
    if not H.is_hermitian():
        raise ValueError("H must be hermitian")
    coeffs = np.array([c.real for c, _ in H.terms()])
    kept = np.flatnonzero(coeffs)
    psi, D = derivative_sweep(spec, params)
    P = D.shape[0]
    means = _overlaps(D, *[pauli_apply_raw(psi, h) for _, h in H.terms()])[:, kept]
    ids = [f"grad:p{p}:t{t}" for p in range(P) for t in kept.tolist()]
    values = _sample_pm1(means.ravel(), plan, ids, records)
    return values.reshape(P, kept.size) @ (2.0 * coeffs[kept])


def metric_shot(spec: AnsatzSpec, params, plan: ShotPlan,
                records: list | None = None) -> np.ndarray:
    """g_pq from X-basis double-insertion tests minus the rank-one Y-basis
    correction; upper triangle measured, mirrored by symmetry."""
    psi, D = derivative_sweep(spec, params)
    P = D.shape[0]
    y_mean = _overlaps(D, 1j * psi)[:, 0]  # Re<d_q|i psi> = Im<psi|d_q>
    y = _sample_pm1(y_mean, plan, [f"metric:y:q{q}" for q in range(P)], records)
    rows, cols = np.triu_indices(P)
    x = _sample_pm1(_gram(D)[rows, cols], plan,  # Re<d_p|d_q>
                    [f"metric:x:p{p}q{q}" for p, q in zip(rows.tolist(), cols.tolist())],
                    records)
    g = np.empty((P, P))
    g[rows, cols] = g[cols, rows] = x - y[rows] * y[cols]
    return g


def sample_pauli_expectation(state: StateVector, obs: PauliString, plan: ShotPlan,
                             circuit_id: str | None = None) -> EstimateRecord:
    """<obs> of a hermitian Pauli string, sampled like every ancilla test:
    a shot's product of +/-1 eigenvalues is +1 with probability
    (1 + <obs>)/2, so one binomial draw on the exact mean has the
    statistics of a bitstring draw. The default id is pauli:{letter}{site}..."""
    if circuit_id is None:
        name = "".join(f"{l}{s}" for s, l in sorted(obs.ops.items())) or "I"
        circuit_id = f"pauli:{name}"
    records = []
    _sample_pm1([pauli_expectation(state, obs)], plan, [circuit_id], records)
    return records[0]
