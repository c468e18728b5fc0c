"""Ancilla Hadamard-test circuits with simulated finite-shot readout.

Estimation circuits run on an (L+1)-qubit register, ancilla on the top wire
starting in |+>. Uncontrolled gate segments act on both ancilla branches;
controlled insertions act on the ancilla=1 branch only. Measuring the ancilla
in X estimates Re<phi_0|phi_1>, in Y estimates Im<phi_0|phi_1>, where
phi_0/phi_1 are the branch states.

Shot noise is binomial on the +/-1 ancilla outcome. Every circuit owns an
independent RNG stream derived from (plan.seed, sha256(circuit_id)), so runs
are reproducible and circuits can be sampled in any order. analytic=True
skips sampling and reports the exact mean with zero error bar.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzSpec, gate_generators, gates, parameter_count
from .paulis import PauliString, WeightedPauliSum, parity_signs
from .qng import minus_i_times
from .statevector import (
    RotationGate,
    StateVector,
    apply_controlled,
    apply_rotation,
    pauli_expectation,
    plus_state,
    rotation_apply_raw,
)

_BASES = ("X", "Y")


@dataclass(frozen=True)
class ShotPlan:
    shots: int = 1024
    seed: int = 0
    basis: str = "X"
    analytic: bool = False

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.basis not in _BASES:
            raise ValueError("basis must be X or Y")


@dataclass(frozen=True)
class EstimateRecord:
    value: float
    std_error: float
    shots_used: int
    circuit_id: str
    basis: str = "X"


@dataclass(frozen=True)
class Prefix:
    """Register-state recipe: gate list applied to |+>^n."""

    n_qubits: int
    gates: tuple

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))


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


def _interleaved_state(prefix: Prefix, insertions) -> StateVector:
    """|+>_anc branch circuit: prefix gates with controlled ops woven in."""
    n = prefix.n_qubits
    state = plus_state(n + 1)
    cursor = 0
    for pos, op in insertions:
        if not cursor <= pos <= len(prefix.gates):
            raise ValueError("insertion positions must be sorted and in range")
        for g in prefix.gates[cursor:pos]:
            rotation_apply_raw(state.amplitudes, g)
        state = apply_controlled(state, n, op)
        cursor = pos
    for g in prefix.gates[cursor:]:
        rotation_apply_raw(state.amplitudes, g)
    return state


def _ancilla_mean(state: StateVector, basis: str) -> float:
    anc = state.n_qubits - 1
    return pauli_expectation(state, PauliString.from_ops({anc: basis}))


def sample_ancilla(state: StateVector, plan: ShotPlan, basis: str,
                   circuit_id: str) -> EstimateRecord:
    """Readout of the top-wire ancilla of an already-built test state."""
    if basis not in _BASES:
        raise ValueError("basis must be X or Y")
    return _sample_pm1(_ancilla_mean(state, basis), plan, circuit_id, basis)


def hadamard_test(prefix: Prefix, insertions, plan: ShotPlan, basis: str | None = None,
                  circuit_id: str | None = None) -> EstimateRecord:
    """One ancilla test. insertions: ordered (position, op) pairs; position k
    fires after the first k prefix gates. op is a PauliString (any unit
    phase), a RotationGate, or a unit-modulus scalar."""
    basis = basis or plan.basis
    if basis not in _BASES:
        raise ValueError("basis must be X or Y")
    if circuit_id is None:
        tags = ",".join(f"{pos}:{op!r}" for pos, op in insertions)
        circuit_id = f"ht:{basis}:{len(prefix.gates)}g:{tags}"
    state = _interleaved_state(prefix, insertions)
    return _sample_pm1(_ancilla_mean(state, basis), plan, circuit_id, basis)


def gradient_shot(spec: AnsatzSpec, params, H: WeightedPauliSum, plan: ShotPlan,
                  records: list | None = None) -> np.ndarray:
    """Component p = 2 sum_j c_j mean_j over per-term X-basis tests."""
    if not H.is_hermitian():
        raise ValueError("H must be hermitian")
    gens = gate_generators(spec)
    P = parameter_count(spec)
    circuit = gates(spec, params)
    terms = [(c.real, s) for c, s in H.terms()]
    grad = np.zeros(P)
    for p in range(P):
        # branches share the state up to the final controlled term
        base = plus_state(spec.L + 1)
        for g in circuit[: p + 1]:
            rotation_apply_raw(base.amplitudes, g)
        base = apply_controlled(base, spec.L, minus_i_times(gens[p]))
        for g in circuit[p + 1 :]:
            rotation_apply_raw(base.amplitudes, g)
        for jn, (c, h) in enumerate(terms):
            if c == 0.0:
                continue
            closed = apply_controlled(base, spec.L, h)
            rec = _sample_pm1(
                _ancilla_mean(closed, "X"), plan, f"grad:p{p}:t{jn}", "X"
            )
            if records is not None:
                records.append(rec)
            grad[p] += 2.0 * c * rec.value
    return grad


def metric_shot(spec: AnsatzSpec, params, plan: ShotPlan,
                records: list | None = None) -> np.ndarray:
    """g_pq from X-basis double-insertion tests minus the rank-one Y-basis
    correction; upper triangle measured, mirrored by symmetry."""
    gens = gate_generators(spec)
    P = parameter_count(spec)
    circuit = gates(spec, params)

    def keep(rec):
        if records is not None:
            records.append(rec)
        return rec.value

    y = np.zeros(P)
    for q in range(P):
        state = plus_state(spec.L + 1)
        for g in circuit[: q + 1]:
            rotation_apply_raw(state.amplitudes, g)
        state = apply_controlled(state, spec.L, minus_i_times(gens[q]))
        y[q] = keep(
            _sample_pm1(_ancilla_mean(state, "Y"), plan, f"metric:y:q{q}", "Y")
        )

    g = np.empty((P, P))
    for p in range(P):
        run = plus_state(spec.L + 1)
        for gq in circuit[: p + 1]:
            rotation_apply_raw(run.amplitudes, gq)
        run = apply_controlled(run, spec.L, minus_i_times(gens[p]))
        for q in range(p, P):
            if q > p:
                rotation_apply_raw(run.amplitudes, circuit[q])
            closed = apply_controlled(run, spec.L, PauliString(
                gens[q].x, gens[q].z, (gens[q].e + 1) % 4))  # +i O_q
            val = keep(
                _sample_pm1(_ancilla_mean(closed, "X"), plan, f"metric:x:p{p}q{q}", "X")
            )
            g[p, q] = g[q, p] = val - y[p] * y[q]
    return g


def sample_pauli_expectation(state: StateVector, obs: PauliString, plan: ShotPlan,
                             circuit_id: str | None = None) -> EstimateRecord:
    """Rotate to the computational basis, sample bitstrings, average the
    +/-1 eigenvalue products."""
    if not obs.is_hermitian():
        raise ValueError("observable string must be hermitian")
    if obs.max_site() >= state.n_qubits:
        raise ValueError("observable site out of range")
    if circuit_id is None:
        name = "".join(f"{l}{s}" for s, l in sorted(obs.ops.items())) or "I"
        circuit_id = f"pauli:{name}"
    if plan.analytic:
        return EstimateRecord(pauli_expectation(state, obs), 0.0, 0, circuit_id, "X")
    rotated = state
    for site, letter in obs.ops.items():
        if letter == "X":
            rotated = apply_rotation(
                rotated, RotationGate(PauliString.from_ops({site: "Y"}), -np.pi / 4)
            )
        elif letter == "Y":
            rotated = apply_rotation(
                rotated, RotationGate(PauliString.from_ops({site: "X"}), np.pi / 4)
            )
    probs = np.abs(rotated.amplitudes) ** 2
    probs /= probs.sum()
    signs = parity_signs(obs.x | obs.z, probs.size)
    rng = circuit_rng(plan.seed, circuit_id)
    counts = rng.multinomial(plan.shots, probs)
    value = float(counts @ signs) / plan.shots
    std_error = float(np.sqrt(max(0.0, 1.0 - value * value) / plan.shots))
    return EstimateRecord(value, std_error, plan.shots, circuit_id, "X")


def estimates_to_csv(records) -> str:
    lines = ["circuit_id,basis,shots,value,std_error"]
    for r in records:
        lines.append(
            f"{r.circuit_id},{r.basis},{r.shots_used},{r.value:.17g},{r.std_error:.17g}"
        )
    return "\n".join(lines) + "\n"
