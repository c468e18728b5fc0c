"""Defect-sensitive observables: cross-chain ZZ correlators and the loop
operator built from braid unitaries, which one function (`_loop_overlap`)
applies to a copy of the state and reads as an overlap.

The braid generators are

    g_{2j-1} = q exp(i pi X_j / 4),   g_{2j} = q exp(i pi Z_j Z_{j+1} / 4)

with q = i e^{i pi/4}, and the loop operator is

    Ybar = (-q)^L g_1^{-1} g_2^{-1} ... g_{2L-1}^{-1} + h.c.

Operator products act right factor first, so circuits apply the inverse
braids in descending index order. On the ring's ground states Ybar takes the
value -sqrt(2): magnitude sqrt(2) is the duality-defect g-function, and the
sign is a lattice phase convention.

A subtlety worth recording: Ybar as written commutes with H(v=0, b=1) only
on the spin-flip-even sector. The bare commutator [Ybar, H] is nonzero but
annihilates that sector: [Ybar, H] P_+ = 0 with P_+ = (1 + prod X)/2, and
Ybar P_+ commutes with H outright. Ground states live in the even sector, so
every measured quantity here is sector-exact. The symbolic Pauli expansions
that check this live with the test oracles (tests/oracles.py).
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .ansatz import AnsatzSpec, prepare_state
from .measure import EstimateRecord, ShotPlan, _sample_pm1
from .paulis import PauliString
from .statevector import RotationGate, StateVector, pauli_expectation, rotation_apply_raw

Q = 1j * cmath.exp(1j * math.pi / 4)


def _loop_overlap(state: StateVector) -> complex:
    """(-q)^L <psi| g_1^{-1}...g_{2L-1}^{-1} |psi>. The inverse braids
    g_k^{-1} = exp(-i pi/4 G_k) / q act on a copy of psi for k = 2L-1 down
    to 1, with G_k = X_s for k = 2s+1 and Z_s Z_{s+1} for k = 2s+2 (0-based
    sites s), and their scalars 1/q multiply once. Ybar's expectation is
    twice the real part, which is also the ancilla test's X mean."""
    L = state.n_qubits
    if L < 2:
        raise ValueError("loop operator needs at least two sites")
    amps = state.amplitudes.copy()
    scalar = (-Q) ** L
    for k in range(2 * L - 1, 0, -1):
        s = (k - 1) // 2
        scalar *= 1 / Q
        rotation_apply_raw(amps, RotationGate(
            PauliString(1 << s, 0) if k % 2 else PauliString(0, 3 << s), math.pi / 4))
    return scalar * complex(np.vdot(state.amplitudes, amps))


def ybar_exact(state: StateVector) -> float:
    """2 Re[(-q)^L <psi| g_1^{-1}...g_{2L-1}^{-1} |psi>]."""
    return float(2.0 * _loop_overlap(state).real)


def ybar_shots(state: StateVector, plan: ShotPlan, ids) -> list[EstimateRecord]:
    """Loop-operator estimates of the ancilla test, one per circuit id: the
    X-basis ancilla mean is read from one loop overlap and the ids are
    sampled from it in one batch; values and error bars are twice the
    mean's."""
    records = []
    _sample_pm1(np.full(len(ids), _loop_overlap(state).real), plan, ids, records)
    return [EstimateRecord(2.0 * r.value, 2.0 * r.std_error, r.shots_used, r.circuit_id)
            for r in records]


def ybar_hadamard(spec: AnsatzSpec, params, plan: ShotPlan,
                  circuit_id: str | None = None) -> EstimateRecord:
    """`ybar_shots` on the circuit state under one id (default ybar:L{L})."""
    if circuit_id is None:
        circuit_id = f"ybar:L{spec.L}"
    return ybar_shots(prepare_state(spec, params), plan, [circuit_id])[0]


def correlator_zz(state: StateVector, r: int) -> float:
    """<Z_1 Z_r>, r counted 1-based from the first site."""
    if not 1 <= r <= state.n_qubits:
        raise ValueError("r outside 1..L")
    if r == 1:
        return 1.0
    return pauli_expectation(state, PauliString.from_ops({0: "Z", r - 1: "Z"}))


def correlator_profile(state: StateVector):
    """Exact profile rows (r, value, 0.0) for r = 1..L."""
    return [(r, correlator_zz(state, r), 0.0) for r in range(1, state.n_qubits + 1)]


def correlator_profile_shot(state: StateVector, plan: ShotPlan, runs: int = 1,
                            rs=None, records: list | None = None):
    """Shot-sampled profile: per r, the mean of `runs` independent estimates
    and the propagated standard error of that mean. Every (r, run) circuit
    is drawn in one batch from the exact correlators."""
    if runs < 1:
        raise ValueError("runs must be positive")
    rs = list(range(1, state.n_qubits + 1) if rs is None else rs)
    sampled = [r for r in rs if r != 1]
    recs = []
    _sample_pm1(np.repeat([correlator_zz(state, r) for r in sampled], runs), plan,
                [f"corr:r{r}:run{run}" for r in sampled for run in range(runs)], recs)
    if records is not None:
        records.extend(recs)
    rows = {1: (1, 1.0, 0.0)}
    for k, r in enumerate(sampled):
        block = recs[k * runs:(k + 1) * runs]
        rows[r] = (r, float(np.mean([b.value for b in block])),
                   float(np.sqrt(np.sum(np.square([b.std_error for b in block])))) / runs)
    return [rows[r] for r in rs]
