"""Noise injection, gate folding, and zero-noise extrapolation.

A circuit's gates are rotations about a Z string on one or two sites or
about X on one site, inside its register; `Circuit` refuses any other.
Noise is stochastic-Pauli (depolarizing) per two-qubit gate: after the gate
fires, with probability p2 one of the 15 non-identity two-qubit Paulis on the
gate's support is applied, drawn uniformly (p1 and the 3 one-site Paulis for
one-site gates). The channel average is estimated by trajectory Monte Carlo,
each trajectory sampling its own error record, and the observable is
averaged across trajectories. Density matrices at 4^L are never formed.

Error records come first. A chunk of trajectories draws every record
before any state evolves, in circuit order: per noisy gate, one uniform per
row against p, then one error index per hit row. One clean statevector then
runs through the circuit. A trajectory enters the batch as a copy of the
clean state at the start of the run holding its first error, so the batch
holds only trajectories that have erred, and those that never err share
the clean state's value.

The circuit runs in the maximal commuting runs of `ansatz.gate_runs`, and
noise does not split them: each run acts on every live row at once. An
error E after gate e of a run is then S_e E S_e^dag on the rows the whole
run made, S_e being every phase the run applies after gate e: the later
diagonal gates, exp(-i sum_{j>e} t_j s_j), and the P = S^dag on every site
that the rows still hold where a Z run meets an X run (`ansatz.apply_run`),
which turns X^x Z^z into X^x Z^(z ^ x) up to phase. The rows an erring
gate hit take its conjugation together, gate by gate in circuit order and
`ansatz.GROUP_BYTES` of rows at a time (`_frame`): one phase multiply, the
Pauli X^x Z^z up to a global phase as one sign multiply and one gather, and
the phase back (Pauli-frame sampling: Knill 2005; Gidney,
arXiv:2103.02202). In a run of single-site X rotations an error sits on its
gate's site, which no later gate of the run touches, so its S_e is the held
P alone. `trajectory_bytes` bounds the memory this takes.

Amplification folds trailing two-qubit gates G -> G G^dag G, which leaves
the noiseless circuit exact while multiplying its noise exposure. With n2
two-qubit gates, k = floor((factor-1) n2/2 + 0.5) folds bring the count as
close as possible to factor * n2; the achieved factor (n2 + 2k)/n2 is the
honest abscissa and is what the extrapolation fits against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .ansatz import GROUP_BYTES, AnsatzSpec, apply_run, circuit_pass, gate_generators, gate_runs
from .measure import EstimateRecord
from .paulis import PauliString, WeightedPauliSum
from .statevector import RotationGate, _zsigns, plus_state, sum_expectation_raw

_LETTERS = ("I", "X", "Y", "Z")
CHUNK = 2048  # trajectories per error-record draw; chunk k draws from [seed, stream, k]


@dataclass(frozen=True)
class NoiseModel:
    p2: float = 0.01
    p1: float = 0.0

    def __post_init__(self):
        if not (0 <= self.p2 < 1 and 0 <= self.p1 < 1):
            raise ValueError("error probabilities must lie in [0, 1)")


@dataclass(frozen=True)
class ZneSchedule:
    factors: tuple = ()
    degree: int = 2

    def __post_init__(self):
        factors = tuple(self.factors) or tuple(round(1.0 + 0.2 * i, 1) for i in range(11))
        object.__setattr__(self, "factors", factors)
        if factors[0] != 1.0:
            raise ValueError("first noise factor must be 1.0")
        if not all(math.isfinite(f) for f in factors):
            raise ValueError("noise factors must be finite")
        if any(b <= a for a, b in zip(factors, factors[1:])):
            raise ValueError("noise factors must be strictly increasing")
        if self.degree < 1:
            raise ValueError("extrapolation degree must be at least 1")
        if len(factors) < self.degree + 1:
            raise ValueError(f"a degree-{self.degree} fit needs at least "
                             f"{self.degree + 1} noise factors")


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for p, g in enumerate(self.gates):
            if g.generator.max_site() >= self.n_qubits:
                raise ValueError(f"gate {p} ({g.generator!r}) acts outside the "
                                 f"{self.n_qubits}-qubit register")
        # its `ansatz.gate_runs`, which refuse a generator outside the gate set
        object.__setattr__(self, "_runs", gate_runs(g.generator for g in self.gates))

    @property
    def two_qubit_count(self) -> int:
        return sum(1 for g in self.gates if _weight(g) == 2)


def _weight(gate: RotationGate) -> int:
    g = gate.generator
    return (g.x | g.z).bit_count()


def ansatz_circuit(spec: AnsatzSpec, params) -> Circuit:
    """The ansatz's gates in firing order, gate p at angle params[p]."""
    gens = gate_generators(spec)
    if len(params) != len(gens):
        raise ValueError(f"expected {len(gens)} parameters, got {len(params)}")
    return Circuit(spec.L, tuple(RotationGate(g, float(t)) for g, t in zip(gens, params)))


def fold_gates(circuit: Circuit, factor: float) -> Circuit:
    """Fold trailing two-qubit gates until the count best matches factor."""
    if not 1 <= factor < math.inf:  # NaN fails both comparisons
        raise ValueError("noise factor must be finite and >= 1")
    idx2 = [i for i, g in enumerate(circuit.gates) if _weight(g) == 2]
    k = int((factor - 1) * len(idx2) / 2 + 0.5)
    if k == 0:
        return circuit
    rounds, extra = divmod(k, len(idx2))
    # the `extra` trailing two-qubit gates get one additional fold
    folds = {i: rounds + (rank < extra) for rank, i in enumerate(reversed(idx2))}
    out = []
    for i, g in enumerate(circuit.gates):
        out += [g] + [g.inverse(), g] * folds.get(i, 0)
    return Circuit(circuit.n_qubits, tuple(out))


def fold_schedule(circuit: Circuit, schedule: ZneSchedule) -> tuple:
    """The circuit folded to each schedule factor, and the achieved factors
    (n2 + 2k)/n2 the fit reads; refuses a schedule whose achieved factors
    are too few distinct for its degree."""
    n2 = circuit.two_qubit_count
    if n2 == 0:
        raise ValueError("no two-qubit gates to fold")
    folded = [fold_gates(circuit, factor) for factor in schedule.factors]
    achieved = [c.two_qubit_count / n2 for c in folded]
    if len(set(achieved)) < schedule.degree + 1:
        raise ValueError(f"the noise factors fold to {len(set(achieved))} distinct "
                         f"factors; a degree-{schedule.degree} fit needs "
                         f"{schedule.degree + 1}")
    return folded, achieved


def noiseless_expectation(circuit: Circuit, obs: WeightedPauliSum) -> float:
    if obs.n_qubits != circuit.n_qubits:
        raise ValueError("register size mismatch")
    amps = circuit_pass(circuit._runs, [g.angle for g in circuit.gates], circuit.n_qubits)[0]
    return float(sum_expectation_raw(amps, obs))


@lru_cache(maxsize=None)
def _error_masks(generator: PauliString) -> tuple:
    """X and Z masks of the 15 (3 for one site) non-identity Paulis on the
    generator's support, in letter order (I, X, Y, Z) per site, first site
    slowest. Their phases are global per trajectory and are dropped."""
    sites = sorted(generator.ops)
    letters = [ops for ops in product(_LETTERS, repeat=len(sites)) if set(ops) != {"I"}]
    strings = [PauliString.from_ops({s: l for s, l in zip(sites, ops) if l != "I"})
               for ops in letters]
    return (np.array([s.x for s in strings], dtype=np.int64),
            np.array([s.z for s in strings], dtype=np.int64))


def _error_records(rng, rows: int, noisy) -> dict:
    """Every row's error record, drawn in circuit order. For each noisy gate
    (key, p, masks) that hits a row: key -> (hit rows, the hit rows whose
    first error this is, their errors' X masks, their Z masks)."""
    unhit = np.ones(rows, dtype=bool)
    records = {}
    for key, p, (xs, zs) in noisy:
        hit_rows = np.flatnonzero(rng.random(rows) < p)
        if hit_rows.size == 0:
            continue
        picks = rng.integers(0, len(xs), hit_rows.size)
        first = hit_rows[unhit[hit_rows]]
        unhit[first] = False
        records[key] = (hit_rows, first, xs[picks], zs[picks])
    return records


def _frame(B, at, S, xs, zs) -> None:
    """Rows B[at] <- S X^x Z^z S^dag B[at], each row its own masks, up to
    global phases (S None is 1), in slices of at most GROUP_BYTES of rows;
    the last slice's temporaries go on return."""
    dim = B.shape[1]
    step = max(1, GROUP_BYTES // B[0].nbytes)
    for lo in range(0, at.size, step):
        rows, part = at[lo : lo + step], slice(lo, lo + step)
        erring = B[rows]
        if S is not None:
            erring *= S.conj()
        # Z^z multiplies amplitude i by (-1)^popcount(z & i); X^x then moves
        # it to i ^ x, which within row r is flat index r dim + i ^ x
        erring *= np.array([_zsigns(z, dim) for z in zs[part].tolist()])
        erring = erring.take(np.arange(rows.size)[:, None] * dim
                             + (np.arange(dim) ^ xs[part, None]))
        if S is not None:
            erring *= S
        B[rows] = erring


def trajectory_bytes(circuit: Circuit, trajectories: int) -> int:
    """Bytes `_trajectory_values` holds at most: a batch of min(CHUNK, T) + 1
    rows, then one batch-sized copy (to read an observable term neither
    diagonal nor one X) or under 3 GROUP_BYTES of `_frame` and X-run
    temporaries; per gate, 32 per row (error records) and 48 per amplitude
    (its run's cached sign rows, their sums, cached error signs); 16 per
    value."""
    rows = min(CHUNK, trajectories)
    batch = 16 * (rows + 1) << circuit.n_qubits
    return (batch + max(batch, 3 * GROUP_BYTES) + 16 * trajectories
            + len(circuit.gates) * (32 * rows + (48 << circuit.n_qubits)))


def _chunk_values(circuit: Circuit, obs: WeightedPauliSum, records: dict, rows: int):
    """The <obs> of `rows` trajectories with these error records; all it
    holds goes on return, before the next chunk draws its records."""
    L, angles = circuit.n_qubits, np.array([g.angle for g in circuit.gates], dtype=np.float64)
    # B[0] is the clean trajectory; row r enters B[pos[r]] as a copy of it
    # at its first error, rows entering in order of first error, and a row
    # that never errs reads B[0]
    joins = [first for _, first, _, _ in records.values()]
    order = np.concatenate(joins) if joins else np.empty(0, dtype=np.intp)
    pos = np.zeros(rows, dtype=np.intp)
    pos[order] = np.arange(1, order.size + 1)
    B = np.empty((order.size + 1, 1 << L), dtype=np.complex128)
    B[0] = plus_state(L).amplitudes
    live = 1
    for run in circuit._runs:
        _, start, stop, _, (_, after) = run
        # per noisy gate that hit a row: (its position in the run + 1, record)
        hits = [(p + 1 - start, *records[p]) for p in range(start, stop) if p in records]
        # rows that first err in this run join as the clean row at its start
        for _, _, first, _, _ in hits:
            B[live : live + first.size] = B[0]
            live += first.size
        signs = apply_run(B[:live], run, angles[start:stop], L)
        if not hits:
            continue
        # each erring gate's rows take S E S^dag, S = exp(-i later[end])
        # times the P the rows hold when `after` is set
        if signs is not None:
            later = np.cumsum((angles[start:stop, None] * signs)[::-1], axis=0)[::-1]
        for end, hit_rows, _, ex, ez in hits:
            S = np.exp(-1j * later[end]) if signs is not None and end < len(signs) else None
            _frame(B, pos[hit_rows], S, ex, ez ^ ex if after else ez)
    return sum_expectation_raw(B, obs)[pos]


def _trajectory_values(circuit: Circuit, obs: WeightedPauliSum, noise: NoiseModel,
                       trajectories: int, seed: int, stream: int) -> np.ndarray:
    """Every trajectory's <obs>, in row order across chunks of CHUNK; chunk
    k draws its error records from [seed, stream, k]."""
    if trajectories < 1:
        raise ValueError("need at least one trajectory")
    if not obs.is_hermitian():
        raise ValueError("observable must be hermitian")
    if obs.n_qubits != circuit.n_qubits:
        raise ValueError("register size mismatch")
    probs = [noise.p2 if _weight(g) == 2 else noise.p1 for g in circuit.gates]
    noisy = [(p, prob, _error_masks(g.generator))
             for p, (prob, g) in enumerate(zip(probs, circuit.gates)) if prob > 0]
    pieces = []
    for k, done in enumerate(range(0, trajectories, CHUNK)):
        rows = min(CHUNK, trajectories - done)
        rng = np.random.default_rng([seed, stream, k])
        pieces.append(_chunk_values(circuit, obs, _error_records(rng, rows, noisy), rows))
    return np.concatenate(pieces)


def noisy_expectation(circuit: Circuit, obs: WeightedPauliSum, noise: NoiseModel,
                      trajectories: int, seed: int = 0, stream: int = 0) -> EstimateRecord:
    """Trajectory Monte Carlo mean of <obs> under per-gate Pauli noise."""
    values = _trajectory_values(circuit, obs, noise, trajectories, seed, stream)
    std_error = float(values.std() / np.sqrt(trajectories))
    return EstimateRecord(float(values.mean()), std_error, trajectories, "zne")


def extrapolate(schedule: ZneSchedule, values) -> float:
    """Least-squares polynomial through (factor, estimate), read at factor 0."""
    pairs = list(values)
    xs = np.array([f for f, _ in pairs], dtype=float)
    ys = np.array([e for _, e in pairs], dtype=float)
    if len(set(xs.tolist())) < schedule.degree + 1:
        raise ValueError("not enough distinct factors for the fit degree")
    coeffs = np.polyfit(xs, ys, schedule.degree)
    return float(np.polyval(coeffs, 0.0))


def _extrapolation_weights(schedule: ZneSchedule, factors) -> np.ndarray:
    """w with extrapolate(schedule, zip(factors, y)) == w @ y for every y:
    the fit is linear in the estimates, so w_i is the fit of unit vector i."""
    return np.array([extrapolate(schedule, zip(factors, unit))
                     for unit in np.eye(len(factors))])


def zne_pipeline(circuit: Circuit, obs: WeightedPauliSum, noise: NoiseModel,
                 schedule: ZneSchedule, trajectories: int, seed: int = 0) -> dict:
    """Fold, sample, and extrapolate; returns the full report."""
    folded, achieved = fold_schedule(circuit, schedule)
    noiseless = noiseless_expectation(circuit, obs)
    records = [noisy_expectation(c, obs, noise, trajectories, seed=seed, stream=i)
               for i, c in enumerate(folded)]
    estimates = [rec.value for rec in records]
    errors = [rec.std_error for rec in records]
    extrapolated = extrapolate(schedule, zip(achieved, estimates))
    weights = _extrapolation_weights(schedule, achieved)
    return {
        "factors": list(schedule.factors),
        "achieved_factors": achieved,
        "estimates": estimates,
        "std_errors": errors,
        "extrapolated": extrapolated,
        "extrapolated_std_error": float(np.sqrt(np.sum((weights * errors) ** 2))),
        "noiseless_reference": noiseless,
    }
