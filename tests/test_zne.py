"""Gate folding, trajectory noise, and zero-noise extrapolation."""
import re

import numpy as np
import pytest

import oracles
from oracles import exact_ground

from isingdefect.ansatz import AnsatzSpec, init_params
from isingdefect.model import ModelParams, build_hamiltonian
from isingdefect.paulis import PauliString, WeightedPauliSum
from isingdefect.qng import OptimizeOptions, optimize
from isingdefect import zne
from isingdefect.statevector import RotationGate
from isingdefect.zne import (
    Circuit,
    NoiseModel,
    ZneSchedule,
    ansatz_circuit,
    extrapolate,
    fold_gates,
    noiseless_expectation,
    noisy_expectation,
    zne_pipeline,
)


def _small_circuit():
    spec = AnsatzSpec(L=4, N=2, boundary="open")
    params = init_params(spec, seed=11)
    return spec, ansatz_circuit(spec, params)


def test_noise_model_validation():
    NoiseModel(p2=0.0, p1=0.0)
    with pytest.raises(ValueError):
        NoiseModel(p2=1.0)
    with pytest.raises(ValueError):
        NoiseModel(p2=-0.1)


def test_schedule_defaults_and_validation():
    sched = ZneSchedule()
    assert sched.factors[0] == 1.0
    assert sched.factors[-1] == 3.0
    assert len(sched.factors) == 11
    assert all(b > a for a, b in zip(sched.factors, sched.factors[1:]))
    with pytest.raises(ValueError):
        ZneSchedule(factors=(1.5, 2.0))
    with pytest.raises(ValueError):
        ZneSchedule(factors=(1.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        ZneSchedule(degree=0)
    with pytest.raises(ValueError, match="finite"):
        ZneSchedule(factors=(1.0, 2.0, float("inf")))
    with pytest.raises(ValueError, match="finite"):
        ZneSchedule(factors=(1.0, float("nan")), degree=1)
    with pytest.raises(ValueError, match="at least 3 noise factors"):
        ZneSchedule(factors=(1.0, 2.0), degree=2)


def test_fold_factor_one_is_identity():
    _, circ = _small_circuit()
    assert fold_gates(circ, 1.0) is circ


def test_fold_factor_three_triples_every_two_qubit_gate():
    _, circ = _small_circuit()
    folded = fold_gates(circ, 3.0)
    assert folded.two_qubit_count == 3 * circ.two_qubit_count
    # single-qubit gates are untouched
    n1 = len(circ.gates) - circ.two_qubit_count
    assert len(folded.gates) - folded.two_qubit_count == n1


def test_fold_count_rounds_to_nearest():
    # 10 two-qubit gates at factor 1.2 -> exactly one fold (12 gates)
    gates = tuple(
        RotationGate(PauliString.from_ops({i: "Z", i + 1: "Z"}), 0.1)
        for i in range(10)
    )
    circ = Circuit(11, gates)
    folded = fold_gates(circ, 1.2)
    assert folded.two_qubit_count == 12
    # the fold lands on the trailing gate
    assert folded.gates[-3:] == (gates[-1], gates[-1].inverse(), gates[-1])
    assert folded.gates[:9] == gates[:9]


def test_fold_preserves_noiseless_expectation():
    _, circ = _small_circuit()
    H = build_hamiltonian(ModelParams(L=4, b=0, v=0.7))
    base = noiseless_expectation(circ, H)
    for factor in (1.4, 2.0, 3.0):
        folded = fold_gates(circ, factor)
        assert abs(noiseless_expectation(folded, H) - base) < 1e-10


def test_fold_rejects_factor_below_one():
    _, circ = _small_circuit()
    with pytest.raises(ValueError):
        fold_gates(circ, 0.8)


@pytest.mark.parametrize("factor", [float("inf"), float("nan")])
def test_fold_rejects_non_finite_factors(factor):
    # ZneSchedule refuses these too; a direct call must not reach int()
    _, circ = _small_circuit()
    with pytest.raises(ValueError, match="noise factor must be finite and >= 1"):
        fold_gates(circ, factor)


def test_zero_noise_reproduces_exact_value():
    _, circ = _small_circuit()
    H = build_hamiltonian(ModelParams(L=4))
    rec = noisy_expectation(circ, H, NoiseModel(p2=0.0), trajectories=7, seed=3)
    assert rec.value == pytest.approx(noiseless_expectation(circ, H), abs=1e-12)
    assert rec.std_error < 1e-12
    assert rec.shots_used == 7


def test_single_channel_matches_depolarizing_contraction():
    # one ZZ gate, one error site: mean -> (1 - 16 p / 15) * noiseless
    p = 0.3
    gate = RotationGate(PauliString.from_ops({0: "Z", 1: "Z"}), 0.37)
    circ = Circuit(2, (gate,))
    obs = WeightedPauliSum(2)
    obs.add(1.0, PauliString.from_ops({0: "X", 1: "X"}))
    clean = noiseless_expectation(circ, obs)
    rec = noisy_expectation(circ, obs, NoiseModel(p2=p), trajectories=200_000,
                            seed=5)
    expected = (1 - 16 * p / 15) * clean
    assert abs(rec.value - expected) < 4 * rec.std_error
    assert rec.std_error < 0.01


def test_single_qubit_noise_channel():
    # p1 acts on one-qubit gates with 3 error Paulis: factor (1 - 4 p / 3)
    p = 0.3
    gate = RotationGate(PauliString.from_ops({0: "Z"}), 0.4)
    circ = Circuit(1, (gate,))
    obs = WeightedPauliSum(1)
    obs.add(1.0, PauliString.from_ops({0: "X"}))
    clean = noiseless_expectation(circ, obs)
    rec = noisy_expectation(circ, obs, NoiseModel(p2=0.0, p1=p),
                            trajectories=200_000, seed=9)
    expected = (1 - 4 * p / 3) * clean
    assert abs(rec.value - expected) < 4 * rec.std_error


def test_noisy_energy_respects_variational_bound():
    params_m = ModelParams(L=4, b=1, v=0.0)
    H = build_hamiltonian(params_m)
    spec = AnsatzSpec(L=4, N=2, boundary="periodic")
    state, _ = optimize(spec, params_m, OptimizeOptions(seed=2))
    circ = ansatz_circuit(spec, state.params)
    rec = noisy_expectation(circ, H, NoiseModel(p2=0.05), trajectories=2000,
                            seed=1)
    assert rec.value >= exact_ground(params_m).ground_energy - 1e-9


def test_noisy_expectation_is_deterministic():
    _, circ = _small_circuit()
    H = build_hamiltonian(ModelParams(L=4))
    noise = NoiseModel(p2=0.02)
    a = noisy_expectation(circ, H, noise, trajectories=500, seed=21)
    b = noisy_expectation(circ, H, noise, trajectories=500, seed=21)
    c = noisy_expectation(circ, H, noise, trajectories=500, seed=22)
    assert a.value == b.value
    assert a.value != c.value


def test_chunking_does_not_change_the_estimator_family(monkeypatch):
    # different chunk sizes draw different streams but agree statistically
    _, circ = _small_circuit()
    H = build_hamiltonian(ModelParams(L=4))
    noise = NoiseModel(p2=0.02)
    monkeypatch.setattr(zne, "CHUNK", 512)
    a = noisy_expectation(circ, H, noise, trajectories=4000, seed=7)
    monkeypatch.setattr(zne, "CHUNK", 4000)
    b = noisy_expectation(circ, H, noise, trajectories=4000, seed=7)
    assert abs(a.value - b.value) < 4 * (a.std_error + b.std_error)


def test_extrapolate_is_exact_on_polynomial_data():
    sched = ZneSchedule(degree=2)
    coeffs = (0.7, -0.3, 0.04)
    xs = [1.0, 1.5, 2.0, 2.5, 3.0]
    pairs = [(x, coeffs[0] + coeffs[1] * x + coeffs[2] * x * x) for x in xs]
    assert extrapolate(sched, pairs) == pytest.approx(coeffs[0], abs=1e-10)


def test_extrapolate_constant_data_returns_the_constant():
    sched = ZneSchedule(degree=2)
    pairs = [(x, 4.25) for x in (1.0, 1.4, 1.8, 2.2)]
    assert extrapolate(sched, pairs) == pytest.approx(4.25, abs=1e-10)


def test_extrapolate_needs_enough_distinct_factors():
    sched = ZneSchedule(degree=2)
    with pytest.raises(ValueError):
        extrapolate(sched, [(1.0, 0.5), (2.0, 0.4)])


def test_pipeline_reduces_bias_on_small_chain():
    params_m = ModelParams(L=6, b=0, v=0.0)
    H = build_hamiltonian(params_m)
    spec = AnsatzSpec(L=6, N=3, boundary="open")
    state, _ = optimize(spec, params_m, OptimizeOptions(seed=4))
    circ = ansatz_circuit(spec, state.params)
    report = zne_pipeline(circ, H, NoiseModel(p2=0.01),
                          ZneSchedule(factors=(1.0, 1.5, 2.0, 2.5, 3.0)),
                          trajectories=4000, seed=13)
    clean = report["noiseless_reference"]
    unmitigated = abs(report["estimates"][0] - clean)
    mitigated = abs(report["extrapolated"] - clean)
    assert mitigated <= 0.5 * unmitigated
    assert report["factors"][0] == 1.0
    assert len(report["estimates"]) == len(report["factors"])
    assert all(a >= f - 0.2 for f, a in
               zip(report["factors"], report["achieved_factors"]))


def test_pipeline_is_deterministic():
    _, circ = _small_circuit()
    H = build_hamiltonian(ModelParams(L=4))
    sched = ZneSchedule(factors=(1.0, 2.0, 3.0), degree=1)
    kwargs = dict(noise=NoiseModel(p2=0.02), schedule=sched,
                  trajectories=300, seed=8)
    a = zne_pipeline(circ, H, **kwargs)
    b = zne_pipeline(circ, H, **kwargs)
    assert a == b


def test_streams_differ_across_factors():
    # same circuit at two schedule positions must not share randomness
    _, circ = _small_circuit()
    H = build_hamiltonian(ModelParams(L=4))
    noise = NoiseModel(p2=0.05)
    a = noisy_expectation(circ, H, noise, trajectories=400, seed=6, stream=0)
    b = noisy_expectation(circ, H, noise, trajectories=400, seed=6, stream=1)
    assert a.value != b.value


def _random_circuit(L, seed):
    spec = AnsatzSpec(L=L, N=2, boundary="periodic" if L % 2 else "open")
    rng = np.random.default_rng(seed)
    return ansatz_circuit(spec, rng.uniform(-np.pi, np.pi, len(init_params(spec))))


def _assert_matches_trajectory_oracle(circ, obs, noise, trajectories, chunk, seed):
    # the oracle draws chunk by chunk as zne does with CHUNK = chunk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zne, "CHUNK", chunk)
        rows = zne._trajectory_values(circ, obs, noise, trajectories, seed, 2)
        rec = noisy_expectation(circ, obs, noise, trajectories, seed=seed, stream=2)
    values = oracles.trajectory_values(circ, obs, noise.p2, noise.p1, trajectories,
                                       seed=seed, stream=2, chunk=chunk)
    assert np.abs(rows - values).max() < 1e-12
    assert abs(rec.value - values.mean()) < 1e-12
    assert abs(rec.std_error - values.std() / np.sqrt(trajectories)) < 1e-12


_NOISES = (NoiseModel(p2=0.0), NoiseModel(p2=0.02), NoiseModel(p2=0.9),
           NoiseModel(p2=0.02, p1=0.05))


@pytest.mark.parametrize("L", [2, 3, 4, 5])
@pytest.mark.parametrize("factor", [1.0, 2.0, 3.0])
def test_noisy_expectation_matches_trajectory_oracle(L, factor):
    # same streams, same error records, one dense row at a time in the oracle
    circ = fold_gates(_random_circuit(L, seed=L), factor)
    H = build_hamiltonian(ModelParams(L=L, b=L % 2, v=0.7))
    for chunk in (1, 7, 512):
        for noise in _NOISES:
            _assert_matches_trajectory_oracle(circ, H, noise, 30, chunk, seed=L)


def _gate(ops, angle):
    return RotationGate(PauliString.from_ops(ops), angle)


def _assert_circuit_matches_trajectory_oracle(gates):
    circ = Circuit(3, tuple(_gate(ops, angle) for ops, angle in gates))
    H = build_hamiltonian(ModelParams(L=3, b=1, v=0.7))
    for chunk in (1, 7, 512):
        for noise in _NOISES:
            _assert_matches_trajectory_oracle(circ, H, noise, 40, chunk, seed=4)
    clean = oracles.channel_expectation(circ, H, 0.0)
    assert noiseless_expectation(circ, H) == pytest.approx(clean, abs=1e-12)


def test_gate_set_circuits_match_trajectory_oracle():
    # one-site Z gates and a non-adjacent ZZ join the diagonal runs
    _assert_circuit_matches_trajectory_oracle(
        (({0: "Z", 2: "Z"}, 0.4), ({1: "Z"}, 0.9), ({0: "X"}, -0.3), ({2: "X"}, 0.6),
         ({1: "X"}, 1.1), ({2: "Z"}, 0.2), ({1: "Z", 2: "Z"}, -0.7), ({0: "Z"}, -1.2),
         ({1: "X"}, 0.5)))


def test_x_runs_meet_their_phase_on_every_side():
    # an X run is P R P with P = S^dag on every site, and a Z run it meets
    # applies its P; here X runs sit at both ends, two meet (site 1
    # repeats) and one sits between Z runs
    _assert_circuit_matches_trajectory_oracle(
        (({0: "X"}, 0.3), ({1: "X"}, -0.5), ({1: "X"}, 0.7), ({2: "X"}, 0.4),
         ({0: "Z", 1: "Z"}, 0.6), ({2: "Z"}, -0.2), ({0: "X"}, -0.8), ({1: "Z"}, 0.9),
         ({1: "Z", 2: "Z"}, -0.4), ({0: "Z"}, 0.5), ({2: "X"}, 1.1), ({0: "X"}, -0.6)))


# L = 11 splits each X run into Kronecker factors of 3+4+4 sites
@pytest.mark.parametrize("L, boundary, v", [(6, "open", 4.0), (5, "periodic", 0.7),
                                            (11, "periodic", 0.7)])
def test_frames_of_several_errors_match_trajectory_oracle(L, boundary, v):
    # angles 100x the default init keep every phase far from 1; at p2 = 0.9
    # a row errs several times inside one diagonal segment, and on the ring
    # the wrap bond's errors meet the other bonds' gates
    spec = AnsatzSpec(L=L, N=2, boundary=boundary)
    circ = fold_gates(ansatz_circuit(spec, 100 * init_params(spec, seed=L)), 3.0)
    H = build_hamiltonian(ModelParams(L=L, b=L % 2, v=v))
    for p2 in (0.02, 0.9):
        for p1 in (0.0, 0.05):
            _assert_matches_trajectory_oracle(circ, H, NoiseModel(p2=p2, p1=p1), 30, 7,
                                              seed=L)


def _no_draws(*args):
    raise AssertionError("error records drawn before the checks")


def test_register_mismatch_is_rejected(monkeypatch):
    _, circ = _small_circuit()
    H = build_hamiltonian(ModelParams(L=5))
    with pytest.raises(ValueError, match="register size mismatch"):
        noiseless_expectation(circ, H)
    monkeypatch.setattr(zne, "_error_records", _no_draws)
    with pytest.raises(ValueError, match="register size mismatch"):
        noisy_expectation(circ, H, NoiseModel(p2=0.02), 10)


def test_pipeline_needs_a_two_qubit_gate():
    gates = (RotationGate(PauliString.from_ops({0: "X"}), 0.3),
             RotationGate(PauliString.from_ops({1: "Z"}), 0.5))
    H = build_hamiltonian(ModelParams(L=2))
    with pytest.raises(ValueError, match="no two-qubit gates to fold"):
        zne_pipeline(Circuit(2, gates), H, NoiseModel(p2=0.02),
                     ZneSchedule(factors=(1.0, 2.0), degree=1), trajectories=10)


def test_pipeline_rejects_factors_that_fold_alike_before_any_draw(monkeypatch):
    # at L=4, N=1 both factors fold to the same 3 two-qubit gates
    spec = AnsatzSpec(L=4, N=1, boundary="open")
    circ = ansatz_circuit(spec, init_params(spec, seed=1))
    H = build_hamiltonian(ModelParams(L=4))
    assert fold_gates(circ, 1.2).two_qubit_count == circ.two_qubit_count == 3
    monkeypatch.setattr(zne, "_error_records", _no_draws)
    with pytest.raises(ValueError, match="1 distinct factors"):
        zne_pipeline(circ, H, NoiseModel(p2=0.02), ZneSchedule(factors=(1.0, 1.2), degree=1),
                     trajectories=10)


def test_extrapolation_weights_of_a_two_point_line():
    # the line through (1, a) and (2, b) reads 2a - b at factor 0
    weights = zne._extrapolation_weights(ZneSchedule(factors=(1.0, 2.0), degree=1),
                                         [1.0, 2.0])
    assert np.abs(weights - [2.0, -1.0]).max() < 1e-12


def test_pipeline_reports_the_extrapolated_std_error():
    _, circ = _small_circuit()
    H = build_hamiltonian(ModelParams(L=4))
    sched = ZneSchedule(factors=(1.0, 1.5, 2.0, 3.0), degree=2)
    report = zne_pipeline(circ, H, NoiseModel(p2=0.05), sched, trajectories=400, seed=8)
    weights = zne._extrapolation_weights(sched, report["achieved_factors"])
    assert abs(weights @ report["estimates"] - report["extrapolated"]) < 1e-12
    se = np.sqrt(np.sum((weights * report["std_errors"]) ** 2))
    assert report["extrapolated_std_error"] == pytest.approx(se, rel=1e-12)
    assert report["extrapolated_std_error"] > 0


@pytest.mark.parametrize("factor", [1.0, 2.0, 3.0])
def test_trajectory_mean_matches_exact_channel(factor):
    # 2e4 trajectories at full depth against the density-matrix channel
    noise = NoiseModel(p2=0.05)
    circ = fold_gates(_random_circuit(4, seed=12), factor)
    H = build_hamiltonian(ModelParams(L=4, b=0, v=0.7))
    rec = noisy_expectation(circ, H, noise, 20_000, seed=3, stream=int(factor))
    exact = oracles.channel_expectation(circ, H, noise.p2)
    clean = noiseless_expectation(circ, H)
    assert abs(rec.value - exact) < 4 * rec.std_error
    assert abs(exact - clean) > 4 * rec.std_error  # the noise bias is resolved


def test_circuit_refuses_gates_outside_its_set_before_any_draw(monkeypatch):
    # every gate is a rotation about a Z string on one or two sites or about
    # X on one site, inside the register; any other is refused by name, not
    # dropped, misread or met as an IndexError mid-run
    monkeypatch.setattr(zne, "_error_records", _no_draws)
    for n, ops, why in ((3, {1: "Y"}, "is neither"), (3, {0: "X", 1: "X"}, "is neither"),
                        (3, {0: "Z", 1: "Z", 2: "Z"}, "is neither"), (3, {}, "is neither"),
                        (2, {2: "Z"}, "acts outside the 2-qubit register"),
                        (2, {0: "Z", 3: "Z"}, "acts outside"), (2, {3: "X"}, "acts outside")):
        gates = (_gate({0: "Z", 1: "Z"}, 0.4), _gate(ops, 0.7))
        label = re.escape(repr(gates[1].generator))
        with pytest.raises(ValueError, match=rf"gate 1 \({label}\) {why}"):
            noisy_expectation(Circuit(n, gates), build_hamiltonian(ModelParams(L=n)),
                              NoiseModel(p2=0.2, p1=0.1), 40)


@pytest.mark.parametrize("p2", [0.01, 0.5])
@pytest.mark.parametrize("v", [0.0, 4.0])
def test_trajectory_memory_stays_within_its_bound(p2, v, clear_package_caches):
    # `validate` refuses a zne config past physical memory by this bound; at
    # p2 = 0.5 most of a chunk's 2048 rows err, and at v = 4 the defect term
    # takes a batch-sized copy while the observable is read. Every package
    # cache is emptied first, so that the tables the run builds count
    import tracemalloc

    spec = AnsatzSpec(L=8, N=1, boundary="open")
    circ = ansatz_circuit(spec, init_params(spec, seed=1))
    H = build_hamiltonian(ModelParams(L=8, v=v))
    clear_package_caches()
    tracemalloc.start()
    try:
        zne._trajectory_values(circ, H, NoiseModel(p2=p2), 2048, 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= zne.trajectory_bytes(circ, 2048)


@pytest.mark.parametrize("p2", [0.01, 0.5])
@pytest.mark.parametrize("v", [0.0, 4.0])
def test_trajectory_rows_do_not_depend_on_their_batch(p2, v):
    # a row's value comes from its own error record alone: split a chunk's
    # erring rows into two interleaved halves by join order, and each half,
    # run as a batch of its own with the other half's rows left clean, gives
    # its rows and the never-erring ones the full run's bytes
    spec = AnsatzSpec(L=8, N=2, boundary="open")
    circ = ansatz_circuit(spec, 50 * init_params(spec, seed=2))
    H = build_hamiltonian(ModelParams(L=8, v=v))
    noise = NoiseModel(p2=p2, p1=0.02)
    noisy = [(p, noise.p2 if len(g.generator.ops) == 2 else noise.p1,
              zne._error_masks(g.generator)) for p, g in enumerate(circ.gates)]
    records = zne._error_records(np.random.default_rng([5, 0, 0]), zne.CHUNK, noisy)
    full = zne._chunk_values(circ, H, records, zne.CHUNK)
    joined = np.concatenate([first for _, first, _, _ in records.values()])
    clean = np.setdiff1d(np.arange(zne.CHUNK), joined)
    assert joined.size > 1 and (clean.size > 0 or p2 == 0.5)
    for half in (joined[0::2], joined[1::2]):
        part = {}
        for key, (hit_rows, first, ex, ez) in records.items():
            keep = np.isin(hit_rows, half)
            if keep.any():
                part[key] = (hit_rows[keep], first[np.isin(first, half)], ex[keep], ez[keep])
        got = zne._chunk_values(circ, H, part, zne.CHUNK)
        rows = np.concatenate([half, clean])
        assert got[rows].tobytes() == full[rows].tobytes()
