"""Natural-gradient machinery: derivatives, metric, update rule, optimizer."""
import math

import numpy as np
import pytest

from isingdefect.ansatz import (
    AnsatzSpec,
    derivative_sweep,
    gate_generators,
    init_params,
    parameter_count,
    prepare_state,
)
from isingdefect.model import ModelParams, build_hamiltonian
from isingdefect.qng import (
    LAM,
    OptimizeOptions,
    OptimizerState,
    derivative_state,
    gradient_exact,
    metric_exact,
    optimize,
    optimize_bytes,
    qng_step,
)
from isingdefect.statevector import expectation, sum_apply_raw

import oracles
from oracles import exact_ground


def random_point(spec, seed, scale=1.2):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, parameter_count(spec))


def test_derivative_norm_is_one():
    spec = AnsatzSpec(L=3, N=2)
    params = random_point(spec, 0)
    for p in range(parameter_count(spec)):
        assert np.linalg.norm(derivative_state(spec, params, p).amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_derivative_of_stabilizer_rotation_is_pure_gauge():
    # X rotations act on |+...+> at zero angles: derivative is -i psi
    spec = AnsatzSpec(L=2, N=1)
    params = np.zeros(5)
    psi = prepare_state(spec, params)
    for p in (1, 2):  # the two X-rotation slots
        d = derivative_state(spec, params, p)
        assert np.allclose(d.amplitudes, -1j * psi.amplitudes, atol=1e-14)


def test_derivative_matches_finite_difference():
    spec = AnsatzSpec(L=3, N=1)
    params = random_point(spec, 5)
    eps = 1e-5
    for p in range(parameter_count(spec)):
        up, dn = params.copy(), params.copy()
        up[p] += eps
        dn[p] -= eps
        fd = (prepare_state(spec, up).amplitudes - prepare_state(spec, dn).amplitudes) / (
            2 * eps
        )
        got = derivative_state(spec, params, p).amplitudes
        assert np.max(np.abs(got - fd)) < 1e-8


def test_insertion_before_own_gate_is_equivalent():
    # -iO_p commutes with exp(-i t O_p), so either side of gate p agrees
    spec = AnsatzSpec(L=3, N=1)
    params = random_point(spec, 6)
    ops = [oracles.kron_chain(g.ops, 3) for g in gate_generators(spec)]
    for p in [0, 3, 7]:
        amps = np.full(8, 8**-0.5, dtype=complex)
        for k, (O, t) in enumerate(zip(ops, params)):
            if k == p:
                amps = -1j * (O @ amps)
            amps = oracles.dense_rotation(O, t) @ amps
        assert np.allclose(amps, derivative_state(spec, params, p).amplitudes, atol=1e-12)


@pytest.mark.parametrize("L", [2, 4])
def test_gradient_matches_finite_difference(L):
    spec = AnsatzSpec(L=L, N=2)
    mp = ModelParams(L=L, b=0, v=0.9)
    H = build_hamiltonian(mp)
    params = random_point(spec, L)
    grad = gradient_exact(spec, params, H)
    eps = 1e-5
    for p in range(parameter_count(spec)):
        up, dn = params.copy(), params.copy()
        up[p] += eps
        dn[p] -= eps
        fd = (
            expectation(prepare_state(spec, up), H)
            - expectation(prepare_state(spec, dn), H)
        ) / (2 * eps)
        assert abs(grad[p] - fd) < 1e-6


def test_gradient_z_components_vanish_at_zero_params():
    spec = AnsatzSpec(L=2, N=1)
    H = build_hamiltonian(ModelParams(L=2, b=0))
    grad = gradient_exact(spec, np.zeros(5), H)
    assert abs(grad[3]) < 1e-12 and abs(grad[4]) < 1e-12


def test_metric_diagonal_examples_at_zero_params():
    # Rz direction on |+>: g = 1; Rx direction stabilizes |+>: g = 0
    spec = AnsatzSpec(L=2, N=1)
    g = metric_exact(spec, np.zeros(5))
    assert g[3, 3] == pytest.approx(1.0, abs=1e-12)
    assert g[1, 1] == pytest.approx(0.0, abs=1e-12)


def test_gauge_direction_gives_zero_row_and_column():
    spec = AnsatzSpec(L=2, N=1)
    g = metric_exact(spec, np.zeros(5))
    for p in (1, 2):  # X rotations on the stabilized state
        assert np.max(np.abs(g[p, :])) < 1e-12
        assert np.max(np.abs(g[:, p])) < 1e-12


def test_metric_matches_naive_assembly():
    spec = AnsatzSpec(L=2, N=1)
    params = random_point(spec, 9)
    psi = prepare_state(spec, params)
    P = parameter_count(spec)
    derivs = [derivative_state(spec, params, p) for p in range(P)]
    naive = np.empty((P, P))
    for p in range(P):
        for q in range(P):
            dp, dq, amps = derivs[p].amplitudes, derivs[q].amplitudes, psi.amplitudes
            G = np.vdot(dp, dq) - np.vdot(dp, amps) * np.vdot(amps, dq)
            naive[p, q] = G.real
    assert np.allclose(metric_exact(spec, params), naive, atol=1e-12)


def test_metric_matches_fidelity_hessian():
    spec = AnsatzSpec(L=3, N=1)
    params = random_point(spec, 13)
    P = parameter_count(spec)
    base = prepare_state(spec, params)

    def fid(shift):
        return abs(np.vdot(base.amplitudes, prepare_state(spec, params + shift).amplitudes)) ** 2

    def hess(p, q, eps):
        ep = np.zeros(P)
        eq = np.zeros(P)
        ep[p] = eps
        eq[q] = eps
        return (
            fid(ep + eq) - fid(ep - eq) - fid(-ep + eq) + fid(-ep - eq)
        ) / (4 * eps * eps)

    got = metric_exact(spec, params)
    eps = 2e-3
    for p in range(P):
        for q in range(p, P):
            coarse = hess(p, q, eps)
            fine = hess(p, q, eps / 2)
            oracle = -0.5 * (4 * fine - coarse) / 3  # Richardson step
            assert abs(got[p, q] - oracle) < 1e-6


def test_metric_symmetric_and_psd():
    spec = AnsatzSpec(L=4, N=2)
    for seed in range(3):
        g = metric_exact(spec, random_point(spec, seed))
        assert np.array_equal(g, g.T)
        assert np.linalg.eigvalsh(g).min() > -1e-10


@pytest.mark.parametrize("L", [8, 10])
def test_gradient_and_metric_match_complex_overlap_form(L):
    # the real-GEMM overlaps against 2 Re D* H psi and Re(D* D) - Re(w* w^T)
    spec = AnsatzSpec(L=L, N=L // 2, boundary="periodic")
    params = random_point(spec, L, scale=np.pi)
    H = build_hamiltonian(ModelParams(L=L, b=1, v=0.7))
    psi, D = derivative_sweep(spec, params)
    w = D.conj() @ psi
    grad = 2.0 * np.real(D.conj() @ sum_apply_raw(psi, H))
    metric = np.real(D.conj() @ D.T) - np.real(np.outer(w.conj(), w))
    assert np.max(np.abs(gradient_exact(spec, params, H) - grad)) < 1e-12
    assert np.max(np.abs(metric_exact(spec, params) - metric)) < 1e-12


def _flat(params):
    # an energy that never rises above the states' 0.0: no halving
    return 0.0


def test_qng_step_identity_metric_is_vanilla_descent():
    # the metric I + LAM I scales the descent step by 1 / (1 + LAM)
    params = np.array([0.3, -0.2, 1.0])
    grad = np.array([1.0, -2.0, 0.5])
    state = OptimizerState(params=params, energy=0.0)
    out = qng_step(state, grad, np.eye(3), 0.05, _flat)
    assert np.allclose(out.params, params - 0.05 * grad / (1 + LAM), rtol=0, atol=1e-14)
    assert out.iteration == 1


def test_qng_step_regularization_floor():
    # singular 1x1 metric: the shift alone sets the scale, d = 0.1/LAM = 1000
    state = OptimizerState(params=np.array([0.0]), energy=0.0)
    out = qng_step(state, np.array([0.1]), np.array([[0.0]]), 0.05, _flat)
    assert out.params[0] == pytest.approx(-0.05 * 0.1 / LAM, abs=1e-12)


def test_qng_step_halves_until_energy_drops():
    # f(x) = x^2 from x=3 with eta=1.5 overshoots to about -6; one halving
    # lands at 3 - 0.75 * 6 / (1 + LAM), about -1.5
    state = OptimizerState(params=np.array([3.0]), energy=9.0)
    out = qng_step(state, np.array([6.0]), np.eye(1), 1.5, lambda q: float(q[0] ** 2))
    x = 3.0 - 0.75 * 6.0 / (1 + LAM)
    assert out.params[0] == pytest.approx(x, abs=1e-12)
    assert out.energy == pytest.approx(x * x, abs=1e-12)


def test_qng_step_rejects_hopeless_direction():
    state = OptimizerState(params=np.array([1.0]), energy=5.0)
    out = qng_step(state, np.array([1.0]), np.eye(1), 1.0, lambda q: 100.0)
    # the benchmark's tracer counts a step as rejected by this identity
    assert out.params is state.params
    assert out.params[0] == 1.0
    assert out.energy == 5.0
    assert out.stop_reason == "rejected"


def test_optimize_stops_at_first_rejected_step(monkeypatch):
    # every halving energy call reports a rise, so the first step is rejected
    import isingdefect.qng as qng

    calls = []

    def rising(state, H):
        calls.append(1)
        return math.inf

    monkeypatch.setattr(qng, "expectation", rising)
    mp = ModelParams(L=4, b=0, v=0.0)
    state, trace = optimize(AnsatzSpec(L=4, N=2), mp, OptimizeOptions(max_iters=500))
    assert len(trace) == 1
    assert len(calls) == 9  # full step plus 8 halvings, then stop
    assert not state.converged
    assert state.stop_reason == "rejected"
    assert state.energy == trace[0].energy
    assert state.iteration == 0  # a rejected step leaves the state as it was


def test_optimize_spends_no_energy_call_after_its_last_evaluation(monkeypatch):
    # max_iters = 1 evaluates the start and takes no step
    import isingdefect.qng as qng

    calls = []
    energy = qng.expectation

    def counted(state, H):
        calls.append(1)
        return energy(state, H)

    monkeypatch.setattr(qng, "expectation", counted)
    mp = ModelParams(L=4, b=0, v=0.0)
    state, trace = optimize(AnsatzSpec(L=4, N=2), mp, OptimizeOptions(max_iters=1))
    assert calls == []
    assert len(trace) == 1
    assert state.iteration == 0
    assert state.stop_reason == "max_iters"
    assert not state.converged
    assert np.array_equal(state.params, init_params(AnsatzSpec(L=4, N=2), 0))


@pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0, -0.05])
def test_optimize_options_reject_bad_eta(eta):
    with pytest.raises(ValueError, match="eta must be positive and finite"):
        OptimizeOptions(eta=eta)


def test_optimize_options_reject_zero_iterations():
    with pytest.raises(ValueError, match="max_iters must be at least 1"):
        OptimizeOptions(max_iters=0)


def test_qng_step_escalates_and_surfaces_failure():
    state = OptimizerState(params=np.array([0.0]), energy=0.0)
    # -1 + lam is not positive up to lam = 1 and is 9 at lam = 10: a
    # one-parameter metric escalates like a larger one
    out = qng_step(state, np.array([1.0]), np.array([[-1.0]]), 0.05, _flat)
    assert abs(out.params[0] - (-0.05 / 9)) < 1e-12
    # the last lambda tried is 1e-4 * 10^6; the error names it
    with pytest.raises(RuntimeError, match=r"lambda=100\b"):
        qng_step(state, np.array([1.0]), np.array([[math.nan]]), 0.05, _flat)
    # -I + lam I is not positive definite up to lam = 1 and is 9 I at
    # lam = 10, so the step is -eta grad / 9
    grad = np.array([1.0, -2.0])
    state = OptimizerState(params=np.zeros(2), energy=0.0)
    out = qng_step(state, grad, -np.eye(2), 0.05, _flat)
    assert np.max(np.abs(out.params - (-0.05 * grad / 9))) < 1e-12


def test_optimize_small_chain_to_exact_energy(monkeypatch):
    # with no relative-error stop, the gradient norm ends the run
    import isingdefect.qng as qng

    monkeypatch.setattr(qng, "REL_TOL", 0.0)
    spec = AnsatzSpec(L=2, N=1)
    state, trace = optimize(spec, ModelParams(L=2, b=0), OptimizeOptions(max_iters=500))
    assert state.converged
    assert state.energy == pytest.approx(-math.sqrt(5), abs=1e-6)


def test_optimize_reaches_per_mille_accuracy_l8():
    mp = ModelParams(L=8, b=0, v=0.0)
    spec = AnsatzSpec(L=8, N=4)
    state, trace = optimize(spec, mp)
    assert state.converged
    target = exact_ground(mp).ground_energy
    assert abs(state.energy - target) / abs(target) < 1e-3
    assert state.stop_reason == "rel_tol"


def test_optimize_defect_case_l8():
    mp = ModelParams(L=8, b=0, v=4.0)
    spec = AnsatzSpec(L=8, N=4)
    state, trace = optimize(spec, mp)
    assert state.converged
    target = exact_ground(mp).ground_energy
    assert abs(state.energy - target) / abs(target) < 1e-3


def test_natural_gradient_beats_plain_descent(monkeypatch):
    mp = ModelParams(L=4, b=0, v=0.0)
    spec = AnsatzSpec(L=4, N=2)
    qng_state, qng_trace = optimize(spec, mp, OptimizeOptions(max_iters=400))
    # plain descent: the same optimizer with the identity for the metric
    import isingdefect.qng as qng

    monkeypatch.setattr(qng, "_metric", lambda D, w: np.eye(D.shape[0]))
    gd_state, gd_trace = optimize(spec, mp, OptimizeOptions(max_iters=400))
    assert qng_state.converged
    assert len(qng_trace) < len(gd_trace)


def test_energy_trace_monotone_under_safeguard():
    mp = ModelParams(L=4, b=0, v=0.0)
    spec = AnsatzSpec(L=4, N=2)
    _, trace = optimize(spec, mp)
    energies = np.array([r.energy for r in trace])
    assert np.all(np.diff(energies) <= 1e-9)


def test_optimize_flags_non_convergence():
    mp = ModelParams(L=4, b=0, v=0.0)
    spec = AnsatzSpec(L=4, N=2)
    state, trace = optimize(spec, mp, OptimizeOptions(max_iters=3))
    assert not state.converged
    assert state.stop_reason == "max_iters"
    assert len(trace) == 3


def test_optimize_rejects_mismatched_boundary():
    with pytest.raises(ValueError):
        optimize(AnsatzSpec(L=4, N=2, boundary="open"), ModelParams(L=4, b=1))


@pytest.mark.parametrize("L, N, boundary, v, max_iters", [
    (8, 4, "periodic", 0.0, 500), (10, 5, "periodic", 0.0, 500), (12, 6, "open", 4.0, 500),
    # the P x P arrays lead at many layers, one run's temporaries at L = 14
    (4, 40, "periodic", 0.0, 10), (14, 1, "open", 0.0, 5),
])
def test_optimize_memory_stays_within_its_bound(L, N, boundary, v, max_iters,
                                                clear_package_caches):
    # `validate` refuses an optimize config past physical memory by this
    # bound. A one-iteration run first loads what optimize imports on first
    # use; every package cache is then emptied, so that the tables it
    # builds count
    import tracemalloc

    spec = AnsatzSpec(L=L, N=N, boundary=boundary)
    mp = ModelParams(L=L, b=int(boundary == "periodic"), v=v)
    optimize(spec, mp, OptimizeOptions(max_iters=1))
    clear_package_caches()
    tracemalloc.start()
    try:
        optimize(spec, mp, OptimizeOptions(max_iters=max_iters))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= optimize_bytes(spec)
