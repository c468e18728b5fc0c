"""Hadamard-test estimation and finite-shot sampling."""
import itertools
import math

import numpy as np
import pytest

import oracles
from oracles import exact_ground

from isingdefect.ansatz import AnsatzSpec, init_params, parameter_count, prepare_state
from isingdefect.measure import (
    ShotPlan,
    _sample_pm1,
    circuit_rng,
    gradient_shot,
    metric_shot,
    sample_pauli_expectation,
)
from isingdefect.model import ModelParams, build_hamiltonian
from isingdefect.paulis import PauliString, WeightedPauliSum
from isingdefect.qng import gradient_exact, metric_exact
from isingdefect.statevector import StateVector

ANALYTIC = ShotPlan(shots=1, analytic=True)
ZERO = StateVector(1, np.array([1.0, 0.0], dtype=complex))  # |0>


def _plus(n):
    return np.full(2**n, 2 ** (-n / 2), dtype=complex)


def _record(mean, plan, circuit_id):
    """The sampler's record of one circuit: a batch of one."""
    records = []
    _sample_pm1([mean], plan, [circuit_id], records)
    return records[0]


def test_controlled_identity_gives_one():
    mean = oracles.ancilla_mean(oracles.controlled(np.eye(4)) @ _plus(3), "X")
    rec = _record(mean, ANALYTIC, "id")
    assert rec.value == pytest.approx(1.0, abs=1e-14)
    sampled = _record(mean, ShotPlan(shots=64), "id")
    assert sampled.value == 1.0 and sampled.std_error == 0.0


def test_controlled_z_on_plus_gives_zero():
    state = oracles.controlled(oracles.SZ) @ _plus(2)
    mean = oracles.ancilla_mean(state, "X")
    assert _record(mean, ANALYTIC, "cz").value == pytest.approx(0.0, abs=1e-14)


def test_analytic_mode_matches_branch_inner_product():
    spec = AnsatzSpec(L=3, N=1)
    phi0 = prepare_state(spec, init_params(spec, seed=2) * 100)
    phi1 = prepare_state(spec, init_params(spec, seed=3) * 100)
    # |0>_anc |phi0> + |1>_anc |phi1>, ancilla on the top wire
    state = np.concatenate([phi0.amplitudes, phi1.amplitudes]) / np.sqrt(2)
    x = _record(oracles.ancilla_mean(state, "X"), ANALYTIC, "branches").value
    assert x == pytest.approx(np.vdot(phi0.amplitudes, phi1.amplitudes).real, abs=1e-12)


def test_recipe_validation():
    with pytest.raises(ValueError):
        ShotPlan(shots=0)
    with pytest.raises(ValueError):
        ShotPlan(seed=-1)


@pytest.mark.parametrize("L,N", [(2, 1), (4, 2)])
def test_gradient_shot_analytic_equals_exact(L, N):
    spec = AnsatzSpec(L=L, N=N)
    params = init_params(spec, seed=L) * 80
    H = build_hamiltonian(ModelParams(L=L, b=0, v=0.8))
    got = gradient_shot(spec, params, H, ANALYTIC)
    want = gradient_exact(spec, params, H)
    assert np.max(np.abs(got - want)) < 1e-10


def test_gradient_shot_sampled_within_binomial_bounds():
    spec = AnsatzSpec(L=3, N=1)
    params = init_params(spec, seed=5) * 60
    H = build_hamiltonian(ModelParams(L=3, b=0, v=0.0))
    plan = ShotPlan(shots=4096, seed=7)
    got = gradient_shot(spec, params, H, plan)
    want = gradient_exact(spec, params, H)
    budget = 2 * sum(abs(c) for c, _ in H.terms()) * 4 / np.sqrt(plan.shots)
    assert np.max(np.abs(got - want)) < budget


def test_zero_coefficient_term_contributes_nothing():
    spec = AnsatzSpec(L=2, N=1)
    params = init_params(spec, seed=1) * 40
    H = build_hamiltonian(ModelParams(L=2, b=0))
    H2 = build_hamiltonian(ModelParams(L=2, b=0))
    H2.add(0.0, PauliString.from_ops({0: "Y", 1: "Y"}))
    plan = ShotPlan(shots=128, seed=3)
    assert np.array_equal(
        gradient_shot(spec, params, H, plan), gradient_shot(spec, params, H2, plan)
    )
    records = []
    zero = WeightedPauliSum(2).add(0.0, PauliString.from_ops({0: "Z"}))
    assert not gradient_shot(spec, params, zero, plan, records).any() and not records


def test_metric_shot_analytic_equals_exact():
    spec = AnsatzSpec(L=3, N=2)
    params = init_params(spec, seed=9) * 70
    got = metric_shot(spec, params, ANALYTIC)
    want = metric_exact(spec, params)
    assert np.max(np.abs(got - want)) < 1e-10


def test_single_rz_toy_metric():
    # Rz direction on |+> at zero angles: x = 1, y = 0, g = 1
    spec = AnsatzSpec(L=2, N=1)
    records = []
    g = metric_shot(spec, np.zeros(5), ANALYTIC, records)
    means = {r.circuit_id: r.value for r in records}
    assert means["metric:x:p3q3"] == pytest.approx(1.0, abs=1e-12)
    assert means["metric:y:q3"] == pytest.approx(0.0, abs=1e-12)
    assert g[3, 3] == pytest.approx(1.0, abs=1e-12)


def test_metric_shot_sampled_structure():
    spec = AnsatzSpec(L=2, N=1)
    params = init_params(spec, seed=4) * 90
    g = metric_shot(spec, params, ShotPlan(shots=512, seed=11))
    assert np.array_equal(g, g.T)
    assert np.min(np.diag(g)) >= -3 / np.sqrt(512)
    assert np.max(np.abs(g)) <= 2.0 + 1e-12


def test_sample_pauli_deterministic_outcomes():
    z = PauliString.from_ops({0: "Z"})
    rec = sample_pauli_expectation(ZERO, z, ShotPlan(shots=16, seed=0))
    assert rec.value == 1.0 and rec.std_error == 0.0


def test_sample_pauli_x_on_zero_is_noise():
    x = PauliString.from_ops({0: "X"})
    rec = sample_pauli_expectation(
        ZERO, x, ShotPlan(shots=10**6, seed=1)
    )
    assert abs(rec.value) < 0.01


def test_sample_pauli_zz_ground_state():
    res = exact_ground(ModelParams(L=2, b=0))
    zz = PauliString.from_ops({0: "Z", 1: "Z"})
    plan = ShotPlan(shots=4096, seed=21)
    rec = sample_pauli_expectation(res.ground_state, zz, plan)
    exact = 1 / np.sqrt(5)
    assert abs(rec.value - exact) < 3 * max(rec.std_error, 1e-3)
    analytic = sample_pauli_expectation(res.ground_state, zz, ANALYTIC)
    assert analytic.value == pytest.approx(exact, abs=1e-10)


def test_sample_pauli_mixed_letters_match_exact():
    # X and Y factors against the exact path
    spec = AnsatzSpec(L=3, N=2)
    params = init_params(spec, seed=14) * 100
    state = prepare_state(spec, params)
    for ops in [{0: "X", 2: "Y"}, {1: "Y"}, {0: "Z", 1: "X", 2: "Y"}]:
        s = PauliString.from_ops(ops)
        got = sample_pauli_expectation(state, s, ShotPlan(shots=10**6, seed=5))
        from isingdefect.statevector import pauli_expectation

        assert abs(got.value - pauli_expectation(state, s)) < 0.01


@pytest.mark.parametrize("L", [3, 4, 5])
def test_sample_pauli_is_one_draw_on_the_oracle_mean(L):
    # a Pauli readout is sampled like every ancilla test: one binomial draw
    # on its exact mean, under the circuit id pauli:{letter}{site}...
    rng = np.random.default_rng(L)
    strings = [{1: "Z"}, {0: "Z", L - 1: "Z"}, {L - 1: "X"}, {0: "Y"},
               {0: "X", 1: "Y", L - 1: "Z"}]
    for trial in range(3):
        psi = rng.normal(size=2**L) + 1j * rng.normal(size=2**L)
        psi /= np.linalg.norm(psi)
        state = StateVector(L, psi)
        plan = ShotPlan(shots=1024, seed=trial)
        for ops in strings:
            m = oracles.pauli_mean(psi, ops)
            cid = "pauli:" + "".join(f"{l}{s}" for s, l in sorted(ops.items()))
            obs = PauliString.from_ops(ops)
            assert sample_pauli_expectation(state, obs, plan) == _record(m, plan, cid)
            exact = sample_pauli_expectation(state, obs, ANALYTIC)
            assert exact.circuit_id == cid and exact.std_error == 0.0
            assert abs(exact.value - m) < 1e-12
    with pytest.raises(ValueError, match="out of range"):
        sample_pauli_expectation(state, PauliString.from_ops({L: "Z"}), ANALYTIC)


def test_shot_error_scales_as_inverse_sqrt():
    # <+|Rz(0.7)|+> = cos 0.7 is the ancilla's X mean
    state = oracles.controlled(oracles.dense_rotation(oracles.SZ, 0.7)) @ _plus(2)
    mean = oracles.ancilla_mean(state, "X")
    exact = math.cos(0.7)
    assert _record(mean, ANALYTIC, "slope").value == pytest.approx(exact, abs=1e-14)
    shots_grid = [100, 1000, 10000, 100000]
    mean_abs_err = []
    for shots in shots_grid:
        errs = []
        for rep in range(48):
            rec = _record(mean, ShotPlan(shots=shots, seed=6), f"slope:s{shots}:r{rep}")
            errs.append(abs(rec.value - exact))
        mean_abs_err.append(np.mean(errs))
    slope = np.polyfit(np.log(shots_grid), np.log(mean_abs_err), 1)[0]
    assert -0.6 < slope < -0.4


def test_circuit_rng_reproducible_and_distinct():
    a = circuit_rng(5, "c1").integers(0, 2**32, 4)
    b = circuit_rng(5, "c1").integers(0, 2**32, 4)
    c = circuit_rng(5, "c2").integers(0, 2**32, 4)
    d = circuit_rng(6, "c1").integers(0, 2**32, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sampler_batch_contract():
    ids = [f"c{k}" for k in range(6)]
    means = np.array([-1.0, -0.4, 0.0, 0.3, 0.9, 1.0])
    plan = ShotPlan(shots=256, seed=8)
    first, again, other = [], [], []
    values = _sample_pm1(means, plan, ids, first)
    _sample_pm1(means, plan, ids, again)
    _sample_pm1(means, ShotPlan(shots=256, seed=9), ids, other)
    # one record per id, in id order; the same (seed, ids, means) repeats
    assert first == again
    assert [r.circuit_id for r in first] == ids
    assert all(r.shots_used == 256 for r in first)
    assert np.array_equal(values, [r.value for r in first])
    assert [r.value for r in first[1:5]] != [r.value for r in other[1:5]]
    # outcomes of mean +/-1 are certain
    for rec, sign in ((first[0], -1.0), (first[-1], 1.0)):
        assert rec.value == sign and rec.std_error == 0.0
    for rec in first[1:5]:
        assert rec.std_error == pytest.approx(math.sqrt((1 - rec.value**2) / 256))
    exact = []
    assert np.array_equal(_sample_pm1(means, ANALYTIC, ids, exact), means)
    assert [(r.value, r.std_error, r.shots_used) for r in exact] == [
        (m, 0.0, 0) for m in means]


def test_estimate_values_bounded():
    spec = AnsatzSpec(L=2, N=1)
    params = init_params(spec, seed=10) * 100
    records = []
    metric_shot(spec, params, ShotPlan(shots=32, seed=0), records)
    P = parameter_count(spec)
    assert len(records) == P + P * (P + 1) // 2
    assert all(abs(r.value) <= 1.0 for r in records)
    assert all(r.std_error <= 1 / np.sqrt(32) + 1e-12 for r in records)


def _oracle_case(L, N, boundary, v, seed):
    spec = AnsatzSpec(L=L, N=N, boundary=boundary)
    params = np.random.default_rng(seed).uniform(-np.pi, np.pi, parameter_count(spec))
    H = build_hamiltonian(ModelParams(L=L, b=int(boundary == "periodic"), v=v))
    terms = [(c.real, s.ops) for c, s in H.terms()]
    return spec, params, H, oracles.ancilla_test_means(L, N, boundary, params, terms)


def _estimates(spec, params, H, plan):
    records = []
    grad = gradient_shot(spec, params, H, plan, records)
    metric = metric_shot(spec, params, plan, records)
    return grad, metric, records


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_estimators_match_ancilla_circuit_oracle(L, boundary):
    for N in (1, 2):
        for v in (0.0, 0.7, math.inf):
            spec, params, H, want = _oracle_case(L, N, boundary, v, [L, N, int(v == 0.7)])
            grad, metric, records = _estimates(spec, params, H, ANALYTIC)
            assert [r.circuit_id for r in records] == [cid for cid, _, _ in want]
            # each id names its ancilla basis: metric:y: ids are the Y tests
            assert all((basis == "Y") == cid.startswith("metric:y:") for cid, basis, _ in want)
            got = np.array([r.value for r in records])
            assert np.max(np.abs(got - [mean for _, _, mean in want])) < 1e-12
            assert np.max(np.abs(grad - gradient_exact(spec, params, H))) < 1e-12
            assert np.max(np.abs(metric - metric_exact(spec, params))) < 1e-12


@pytest.mark.parametrize("L, boundary", [(3, "open"), (4, "periodic")])
def test_sampled_records_match_oracle_draws(L, boundary):
    # the estimators draw in three batches: every gradient circuit, then the
    # metric's Y circuits, then its X circuits. numpy's binomial draws n - x
    # when p crosses 1/2, so a mean that is 0 by symmetry may sample with
    # either sign
    spec, params, H, want = _oracle_case(L, 2, boundary, 0.7, 5)
    plan = ShotPlan(shots=1024, seed=3)
    _, _, records = _estimates(spec, params, H, plan)
    oracle = []
    for _, batch in itertools.groupby(want, key=lambda w: (w[0].split(":")[0], w[1])):
        ids, bases, means = zip(*batch)
        _sample_pm1(means, plan, ids, oracle)
    assert len(records) == len(want) == len(oracle)
    for rec, want_rec, (_, _, mean) in zip(records, oracle, want):
        if abs(mean) > 1e-12:
            assert rec == want_rec
        else:
            assert (rec.circuit_id, abs(rec.value)) == (want_rec.circuit_id, abs(want_rec.value))
