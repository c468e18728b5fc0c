"""Ancilla Hadamard tests and Pauli readouts with simulated finite shots.

A test runs on an (L+1)-qubit register, ancilla on the top wire starting in
|+>: controlled insertions act on the ancilla=1 branch only, and measuring
the ancilla in X gives Re<phi_0|phi_1>, in Y Im<phi_0|phi_1>, where
phi_0/phi_1 are the branch states. Every such mean is an overlap of L-qubit
states, so no (L+1)-qubit register is built: `gradient_shot` and
`metric_shot` read theirs from one `ansatz.derivative_sweep` (d_p =
d psi/d theta_p), `observables.ybar_hadamard` reads the loop overlap, and
each mean is sampled under its circuit id:

    grad:p{p}:t{t}    X   Re<psi| h_t |d_p>  = Re<d_p|h_t psi>
    metric:y:q{q}     Y   Im<psi|d_q>        = -Im<d_q|psi>
    metric:x:p{p}q{q} X   Re<d_q|d_p>
    ybar:L{L}         X   Re (-q)^L <psi| g_1^-1 ... g_{2L-1}^-1 |psi>
    pauli:{l}{s}...   X   <psi| P |psi>, P a hermitian Pauli string

The last is a direct readout (`sample_pauli_expectation`: correlators and
re-measured energies). The product of a bitstring's +/-1 eigenvalues is
itself a +/-1 outcome with mean <P>, so it needs no basis rotation or
bitstring draw either.

Shot noise is binomial on the +/-1 outcome, drawn by `_sample_pm1` for
every circuit kind. Every circuit owns an independent RNG stream derived
from (plan.seed, sha256(circuit_id)), so runs are reproducible and circuits
can be sampled in any order. analytic=True skips sampling and reports the
exact mean with zero error bar.
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
    basis: str = "X"


def circuit_rng(seed: int, circuit_id: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(circuit_id.encode()).digest()[:8], "big")
    return np.random.default_rng([seed, tag])


def _sample_pm1(exact: float, plan: ShotPlan, circuit_id: str, basis: str) -> EstimateRecord:
    if plan.analytic:
        return EstimateRecord(exact, 0.0, 0, circuit_id, basis)
    p_plus = min(1.0, max(0.0, 0.5 * (1.0 + exact)))
    rng = circuit_rng(plan.seed, circuit_id)
    n_plus = int(rng.binomial(plan.shots, p_plus))
    value = 2.0 * n_plus / plan.shots - 1.0
    std_error = float(np.sqrt(max(0.0, 1.0 - value * value) / plan.shots))
    return EstimateRecord(value, std_error, plan.shots, circuit_id, basis)


def gradient_shot(spec: AnsatzSpec, params, H: WeightedPauliSum, plan: ShotPlan,
                  records: list | None = None) -> np.ndarray:
    """Component p = 2 sum_t c_t m_pt over per-term X-basis tests, with
    means m_pt = Re<d_p|h_t psi>."""
    if not H.is_hermitian():
        raise ValueError("H must be hermitian")
    terms = [(c.real, h) for c, h in H.terms()]
    psi, D = derivative_sweep(spec, params)
    means = _overlaps(D, *[pauli_apply_raw(psi, h) for _, h in terms])
    grad = np.zeros(D.shape[0])
    for p, row in enumerate(means):
        for t, (c, _) in enumerate(terms):
            if c == 0.0:
                continue
            rec = _sample_pm1(row[t], plan, f"grad:p{p}:t{t}", "X")
            if records is not None:
                records.append(rec)
            grad[p] += 2.0 * c * rec.value
    return grad


def metric_shot(spec: AnsatzSpec, params, plan: ShotPlan,
                records: list | None = None) -> np.ndarray:
    """g_pq from X-basis double-insertion tests minus the rank-one Y-basis
    correction; upper triangle measured, mirrored by symmetry."""
    psi, D = derivative_sweep(spec, params)
    P = D.shape[0]
    x = _gram(D)  # Re<d_p|d_q>
    y_mean = _overlaps(D, 1j * psi)[:, 0]  # Re<d_q|i psi> = Im<psi|d_q>

    def keep(rec):
        if records is not None:
            records.append(rec)
        return rec.value

    y = np.array([keep(_sample_pm1(y_mean[q], plan, f"metric:y:q{q}", "Y"))
                  for q in range(P)])
    g = np.empty((P, P))
    for p in range(P):
        for q in range(p, P):
            val = keep(_sample_pm1(x[p, q], plan, f"metric:x:p{p}q{q}", "X"))
            g[p, q] = g[q, p] = val - y[p] * y[q]
    return g


def sample_pauli_expectation(state: StateVector, obs: PauliString, plan: ShotPlan,
                             circuit_id: str | None = None) -> EstimateRecord:
    """<obs> of a hermitian Pauli string, sampled like every ancilla test:
    a shot's product of +/-1 eigenvalues is +1 with probability
    (1 + <obs>)/2, so one `_sample_pm1` draw on the exact mean has the
    statistics of a bitstring draw. The default id is pauli:{letter}{site}..."""
    if not obs.is_hermitian():
        raise ValueError("observable string must be hermitian")
    if obs.max_site() >= state.n_qubits:
        raise ValueError("observable site out of range")
    if circuit_id is None:
        name = "".join(f"{l}{s}" for s, l in sorted(obs.ops.items())) or "I"
        circuit_id = f"pauli:{name}"
    return _sample_pm1(pauli_expectation(state, obs), plan, circuit_id, "X")


def estimates_to_csv(records) -> str:
    lines = ["circuit_id,basis,shots,value,std_error"]
    for r in records:
        lines.append(
            f"{r.circuit_id},{r.basis},{r.shots_used},{r.value:.17g},{r.std_error:.17g}"
        )
    return "\n".join(lines) + "\n"
