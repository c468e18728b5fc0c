"""Noise injection, gate folding, and zero-noise extrapolation.

Noise is stochastic-Pauli (depolarizing) per two-qubit gate: after the gate
fires, with probability p2 one of the 15 non-identity two-qubit Paulis on the
gate's support is applied, drawn uniformly (p1 and the 3 one-site Paulis for
single-qubit gates; a gate on any other number of sites needs p1 = 0). The
channel average is estimated by trajectory Monte Carlo, each trajectory
sampling its own error record, and the observable is averaged across
trajectories. Density matrices at 4^L are never formed.

Error records come first. A chunk of trajectories draws every record
before any state evolves, in circuit order: per noisy gate, one uniform per
row against p, then one error index per hit row. One clean statevector then
runs through the circuit. A trajectory enters the batch as a copy of the
clean state at its first error, so the batch holds only trajectories that
have erred, and those that never err share the clean state's value. Gates
go in maximal commuting runs (`ansatz.gate_runs`) that end at each noisy
gate: a diagonal run is one phase vector, single-site X rotations are one
Kronecker-factor pass, and any other generator goes gate by gate.

Amplification folds trailing two-qubit gates G -> G G^dag G, which leaves
the noiseless circuit exact while multiplying its noise exposure. With n2
two-qubit gates, k = floor((factor-1) n2/2 + 0.5) folds bring the count as
close as possible to factor * n2; the achieved factor (n2 + 2k)/n2 is the
honest abscissa and is what the extrapolation fits against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ansatz import AnsatzSpec, apply_run, gate_runs, gates as ansatz_gates
from .measure import EstimateRecord
from .paulis import PauliString, WeightedPauliSum
from .statevector import (
    RotationGate,
    pauli_apply_raw,
    plus_state,
    sum_expectation_raw,
)

_LETTERS = ("I", "X", "Y", "Z")


@dataclass(frozen=True)
class NoiseModel:
    p2: float = 0.01
    p1: float = 0.0

    def __post_init__(self):
        if not (0 <= self.p2 < 1 and 0 <= self.p1 < 1):
            raise ValueError("error probabilities must lie in [0, 1)")


def _default_factors():
    return tuple(round(1.0 + 0.2 * i, 1) for i in range(11))


@dataclass(frozen=True)
class ZneSchedule:
    factors: tuple = ()
    degree: int = 2

    def __post_init__(self):
        factors = tuple(self.factors) or _default_factors()
        object.__setattr__(self, "factors", factors)
        if factors[0] != 1.0:
            raise ValueError("first noise factor must be 1.0")
        if any(b <= a for a, b in zip(factors, factors[1:])):
            raise ValueError("noise factors must be strictly increasing")
        if self.degree < 1:
            raise ValueError("extrapolation degree must be at least 1")


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))

    @property
    def two_qubit_count(self) -> int:
        return sum(1 for g in self.gates if _weight(g) == 2)


def _weight(gate: RotationGate) -> int:
    g = gate.generator
    return (g.x | g.z).bit_count()


def ansatz_circuit(spec: AnsatzSpec, params) -> Circuit:
    return Circuit(spec.L, tuple(ansatz_gates(spec, params)))


def fold_gates(circuit: Circuit, factor: float) -> Circuit:
    """Fold trailing two-qubit gates until the count best matches factor."""
    if factor < 1:
        raise ValueError("noise factor must be >= 1")
    idx2 = [i for i, g in enumerate(circuit.gates) if _weight(g) == 2]
    n2 = len(idx2)
    if n2 == 0:
        return circuit
    k = int((factor - 1) * n2 / 2 + 0.5)
    if k == 0:
        return circuit
    rounds, extra = divmod(k, n2)
    # the `extra` trailing two-qubit gates get one additional fold
    folds = {}
    for rank, i in enumerate(reversed(idx2)):
        folds[i] = rounds + (1 if rank < extra else 0)
    out = []
    for i, g in enumerate(circuit.gates):
        out.append(g)
        for _ in range(folds.get(i, 0)):
            out.append(g.inverse())
            out.append(g)
    return Circuit(circuit.n_qubits, tuple(out))


def _runs_and_angles(circuit: Circuit, noisy=None):
    """`ansatz.gate_runs` of the circuit's generators, and its angles."""
    return (gate_runs([g.generator for g in circuit.gates], noisy),
            np.array([g.angle for g in circuit.gates], dtype=np.float64))


def noiseless_expectation(circuit: Circuit, obs: WeightedPauliSum) -> float:
    runs, angles = _runs_and_angles(circuit)
    amps = plus_state(circuit.n_qubits).amplitudes
    for run in runs:
        apply_run(amps[None], run, angles[run[1] : run[2]], circuit.n_qubits)
    return float(sum_expectation_raw(amps, obs))


@lru_cache(maxsize=None)
def _error_strings(generator: PauliString) -> tuple:
    """The 15 (3 for one site) non-identity Paulis on the generator support."""
    sites = sorted(generator.ops)
    strings = []
    if len(sites) == 1:
        for letter in _LETTERS[1:]:
            strings.append(PauliString.from_ops({sites[0]: letter}))
        return tuple(strings)
    a, b = sites
    for la in _LETTERS:
        for lb in _LETTERS:
            if la == lb == "I":
                continue
            ops = {}
            if la != "I":
                ops[a] = la
            if lb != "I":
                ops[b] = lb
            strings.append(PauliString.from_ops(ops))
    return tuple(strings)


def _error_records(rng, rows: int, noisy) -> dict:
    """Every row's error record, drawn in circuit order. For each noisy gate
    (key, p, errors) that hits a row: key -> (hit rows, error picks, the hit
    rows whose first error this is, errors)."""
    unhit = np.ones(rows, dtype=bool)
    records = {}
    for key, p, errors in noisy:
        hit = rng.random(rows) < p
        n_hit = int(hit.sum())
        if n_hit == 0:
            continue
        picks = rng.integers(0, len(errors), n_hit)
        hit_rows = np.flatnonzero(hit)
        first = hit_rows[unhit[hit_rows]]
        unhit[first] = False
        records[key] = (hit_rows, picks, first, errors)
    return records


def noisy_expectation(circuit: Circuit, obs: WeightedPauliSum, noise: NoiseModel,
                      trajectories: int, seed: int = 0, stream: int = 0,
                      chunk: int = 2048, circuit_id: str = "zne") -> EstimateRecord:
    """Trajectory Monte Carlo mean of <obs> under per-gate Pauli noise."""
    if trajectories < 1:
        raise ValueError("need at least one trajectory")
    if not obs.is_hermitian():
        raise ValueError("observable must be hermitian")
    L = circuit.n_qubits
    weights = [_weight(g) for g in circuit.gates]
    other = [w for w in weights if w not in (1, 2)]
    if noise.p1 > 0 and other:
        raise ValueError(f"p1 noise is defined on one-site gates, not on a "
                         f"{other[0]}-site gate; run it with p1 = 0")
    probs = [noise.p2 if w == 2 else noise.p1 for w in weights]
    runs, angles = _runs_and_angles(circuit, [p > 0 for p in probs])
    # a noisy gate ends its run: (run index, p, error strings) per noisy gate
    noisy = [(i, probs[stop - 1], _error_strings(circuit.gates[stop - 1].generator))
             for i, (_, _, stop, _) in enumerate(runs) if probs[stop - 1] > 0]
    base = plus_state(L).amplitudes

    total = 0
    pieces = []
    chunk_index = 0
    while total < trajectories:
        rows = min(chunk, trajectories - total)
        rng = np.random.default_rng([seed, stream, chunk_index])
        records = _error_records(rng, rows, noisy)
        # B[0] is the clean trajectory; row r enters B[pos[r]] as a copy of
        # it at its first error, rows entering in order of first error
        joins = [first for _, _, first, _ in records.values()]
        order = np.concatenate(joins) if joins else np.empty(0, dtype=np.intp)
        pos = np.empty(rows, dtype=np.intp)
        pos[order] = np.arange(1, order.size + 1)
        B = np.empty((order.size + 1, base.size), dtype=np.complex128)
        B[0] = base
        live = 1
        for i, run in enumerate(runs):
            apply_run(B[:live], run, angles[run[1] : run[2]], L)
            if i not in records:
                continue
            hit_rows, picks, first, errors = records[i]
            B[live : live + first.size] = B[0]
            live += first.size
            hit_pos = pos[hit_rows]
            for e in np.unique(picks):
                sel = hit_pos[picks == e]
                B[sel] = pauli_apply_raw(B[sel], errors[e])
        values = sum_expectation_raw(B, obs)
        piece = np.full(rows, values[0])  # rows that never err
        piece[order] = values[1:]
        pieces.append(piece)
        total += rows
        chunk_index += 1
    values = np.concatenate(pieces)
    mean = float(values.mean())
    std_error = float(values.std() / np.sqrt(total))
    return EstimateRecord(mean, std_error, total, circuit_id, "X")


def extrapolate(schedule: ZneSchedule, values) -> float:
    """Least-squares polynomial through (factor, estimate), read at factor 0."""
    pairs = list(values)
    xs = np.array([f for f, _ in pairs], dtype=float)
    ys = np.array([e for _, e in pairs], dtype=float)
    if len(set(xs.tolist())) < schedule.degree + 1:
        raise ValueError("not enough distinct factors for the fit degree")
    coeffs = np.polyfit(xs, ys, schedule.degree)
    return float(np.polyval(coeffs, 0.0))


def zne_pipeline(circuit: Circuit, obs: WeightedPauliSum, noise: NoiseModel,
                 schedule: ZneSchedule, trajectories: int, seed: int = 0) -> dict:
    """Fold, sample, and extrapolate; returns the full report."""
    noiseless = noiseless_expectation(circuit, obs)
    n2 = max(circuit.two_qubit_count, 1)
    estimates = []
    achieved = []
    errors = []
    for i, factor in enumerate(schedule.factors):
        folded = fold_gates(circuit, factor)
        achieved.append(folded.two_qubit_count / n2)
        rec = noisy_expectation(
            folded, obs, noise, trajectories, seed=seed, stream=i,
            circuit_id=f"zne:f{factor}",
        )
        estimates.append(rec.value)
        errors.append(rec.std_error)
    extrapolated = extrapolate(schedule, zip(achieved, estimates))
    return {
        "factors": list(schedule.factors),
        "achieved_factors": achieved,
        "estimates": estimates,
        "std_errors": errors,
        "extrapolated": extrapolated,
        "noiseless_reference": noiseless,
    }
