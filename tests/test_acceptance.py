"""End-to-end acceptance gate: one test per criterion, stated tolerances.

Each test prints a single `[criterion N] PASS/FAIL` line with the measured
values, so this module documents them whether a criterion passes or fails.
Criterion 2 asserts a claim that the implementation measures to be false as
stated: the bare commutator of the loop operator with the ring Hamiltonian
is 2^L, and only its spin-flip-even part vanishes (see the failure detail).
It is kept faithful rather than loosened and fails by design. Criterion 3's
v=0 clause pins the impurity-free profile to an independent free-fermion
oracle; its report line also prints the v=0 minimum against the 0.05 ceiling
that defines "collapsed" at v=4.
"""
import math
import time

import numpy as np

from isingdefect.ansatz import AnsatzSpec, init_params, parameter_count, prepare_state
from isingdefect.measure import (
    ShotPlan,
    gradient_shot,
    metric_shot,
    sample_pauli_expectation,
)
from isingdefect.model import ModelParams, build_hamiltonian
from isingdefect.observables import (
    correlator_profile,
    correlator_profile_shot,
    ybar_exact,
    ybar_hadamard,
)
from isingdefect.paulis import PauliString, WeightedPauliSum
from isingdefect.qng import (
    OptimizeOptions,
    gradient_exact,
    metric_exact,
    optimize,
)
from isingdefect.statevector import expectation
from isingdefect.zne import NoiseModel, ZneSchedule, ansatz_circuit, zne_pipeline

import oracles
from oracles import exact_ground

_OPT_CACHE = {}


def _optimized(L, b, v, seed=0):
    """Optimize once per (L, b, v); reused across criteria."""
    key = (L, b, v, seed)
    if key not in _OPT_CACHE:
        mp = ModelParams(L=L, b=b, v=v)
        spec = AnsatzSpec(L=L, N=L // 2, boundary=mp.boundary)
        started = time.monotonic()
        state, trace = optimize(spec, mp, OptimizeOptions(seed=seed))
        elapsed = time.monotonic() - started
        _OPT_CACHE[key] = (mp, spec, state, trace, elapsed)
    return _OPT_CACHE[key]


def _report(number, ok, detail):
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_energy_convergence():
    rows = []
    ok = True
    for L in (8, 10, 12):
        for v in (0.0, 4.0):
            for b in (0, 1):
                mp, _, state, _, elapsed = _optimized(L, b, v)
                reference = exact_ground(mp).ground_energy
                rel = abs(state.energy - reference) / abs(reference)
                good = state.converged and rel < 1e-3 and elapsed < 600
                ok = ok and good
                rows.append(f"L={L} v={v:g} b={b}: rel={rel:.2e} "
                            f"t={elapsed:.1f}s {'ok' if good else 'BAD'}")
    _report(1, ok, "rel energy error < 0.1% within 10 min per instance; "
            + "; ".join(rows))


def test_criterion_2_topological_eigenvalue():
    clauses = []
    eig_ok = True
    for L in (8, 10, 12):
        res = exact_ground(ModelParams(L=L, b=1, v=0.0))
        value = ybar_exact(res.ground_state)
        err = abs(abs(value) - math.sqrt(2))
        eig_ok = eig_ok and err < 1e-8
        clauses.append(f"L={L}: ||<Ybar>|-sqrt2|={err:.2e}")
    comm_ok = True
    for L in (2, 3, 4, 5, 6):
        H = oracles.pauli_map(build_hamiltonian(ModelParams(L=L, b=1, v=0.0)))
        ybar = oracles.loop_sum(L)
        norm = oracles.commutator_norm(ybar, H)
        projected = oracles.norm(oracles.product(oracles.commutator(ybar, H),
                                                 oracles.sector_projector(L)))
        comm_ok = comm_ok and norm < 1e-10
        clauses.append(f"L={L}: |[Ybar,H]|={norm:.6g} "
                       f"(sector-projected {projected:.2e})")
    _report(2, eig_ok and comm_ok,
            "|<Ybar>| = sqrt(2) within 1e-8 and |[Ybar,H]| < 1e-10; "
            + "; ".join(clauses))


def test_criterion_3_defect_collapse():
    states = {}
    for v in (0.0, 4.0):
        res = exact_ground(ModelParams(L=12, b=0, v=v, j=6))
        states[v] = res.ground_state
    clauses = []

    profile_v4 = {r: value for r, value, _ in correlator_profile(states[4.0])}
    collapse_ok = all(abs(profile_v4[r]) < 0.05 for r in range(7, 13))
    worst4 = max(abs(profile_v4[r]) for r in range(7, 13))
    clauses.append(f"v=4 max|Z1Zr| for r>=7 is {worst4:.6g} (< 0.05: "
                   f"{collapse_ok})")

    # no collapse without the impurity: the v=0 profile is the open critical
    # chain's, fixed by an independent free-fermion route; its minimum is
    # reported against the v=4 collapse ceiling, which the oracle clears
    profile_v0 = {r: value for r, value, _ in correlator_profile(states[0.0])}
    free = dict(zip(range(2, 13), oracles.free_fermion_zz_profile(12)))
    oracle_dev = max(abs(profile_v0[r] - free[r]) for r in range(2, 13))
    oracle_ok = oracle_dev < 1e-10
    worst0_r = min(range(2, 13), key=lambda r: profile_v0[r])
    clauses.append(f"v=0 max dev from free-fermion oracle over r<=12 is "
                   f"{oracle_dev:.2e} (< 1e-10: {oracle_ok})")
    clauses.append(f"v=0 min over r<=12 is {profile_v0[worst0_r]:.6g} at "
                   f"r={worst0_r} (collapse ceiling 0.05)")

    shot_ok = True
    for v in (0.0, 4.0):
        plan = ShotPlan(shots=8192, seed=0)
        rows = correlator_profile_shot(states[v], plan, runs=10)
        exact = {r: value for r, value, _ in correlator_profile(states[v])}
        for r, mean, se in rows:
            if se == 0.0:
                continue
            if abs(mean - exact[r]) > 3 * se:
                shot_ok = False
                clauses.append(f"v={v:g} r={r}: |{mean:.5f}-{exact[r]:.5f}| "
                               f"> 3*{se:.5f}")
    clauses.append(f"shot profiles within 3 SE: {shot_ok}")
    _report(3, collapse_ok and oracle_ok and shot_ok,
            "v=4 collapse, v=0 oracle, shot agreement; "
            + "; ".join(clauses))


def test_criterion_4_gradient_and_metric_fidelity():
    spec = AnsatzSpec(L=4, N=2, boundary="open")
    params = init_params(spec, seed=7) + 0.05
    H = build_hamiltonian(ModelParams(L=4, v=0.7))
    grad = gradient_exact(spec, params, H)
    eps = 1e-5
    fd = np.empty_like(grad)
    for p in range(len(params)):
        shifted = params.copy()
        shifted[p] += eps
        up = expectation(prepare_state(spec, shifted), H)
        shifted[p] -= 2 * eps
        down = expectation(prepare_state(spec, shifted), H)
        fd[p] = (up - down) / (2 * eps)
    grad_err = float(np.max(np.abs(grad - fd)))

    g = metric_exact(spec, params)
    base = prepare_state(spec, params).amplitudes

    def overlap_sq(dp, dq, p, q):
        shifted = params.copy()
        shifted[p] += dp
        shifted[q] += dq
        other = prepare_state(spec, shifted).amplitudes
        return abs(np.vdot(base, other)) ** 2

    def hessian_at(eps_h):
        P = len(params)
        h = np.empty((P, P))
        for p in range(P):
            for q in range(p, P):
                if p == q:
                    val = (overlap_sq(eps_h, 0, p, p)
                           - 2.0 + overlap_sq(-eps_h, 0, p, p)) / eps_h**2
                else:
                    val = (overlap_sq(eps_h, eps_h, p, q)
                           - overlap_sq(eps_h, -eps_h, p, q)
                           - overlap_sq(-eps_h, eps_h, p, q)
                           + overlap_sq(-eps_h, -eps_h, p, q)) / (4 * eps_h**2)
                h[p, q] = h[q, p] = val
        return h

    eps_h = 2e-3
    fine, coarse = hessian_at(eps_h), hessian_at(2 * eps_h)
    oracle = -0.5 * (4 * fine - coarse) / 3
    metric_err = float(np.max(np.abs(g - oracle)))
    sym_err = float(np.max(np.abs(g - g.T)))
    min_eig = float(np.linalg.eigvalsh(g).min())
    ok = (grad_err < 1e-6 and metric_err < 1e-6 and sym_err == 0.0
          and min_eig >= -1e-10)
    _report(4, ok, f"grad FD err {grad_err:.2e} < 1e-6, metric vs "
            f"fidelity-Hessian {metric_err:.2e} < 1e-6, symmetric "
            f"(dev {sym_err:g}), PSD (min eig {min_eig:.2e})")


def test_criterion_5_measurement_protocol_equivalence():
    spec = AnsatzSpec(L=3, N=2, boundary="open")
    params = init_params(spec, seed=3) + 0.1
    H = build_hamiltonian(ModelParams(L=3, v=0.4))
    plan = ShotPlan(shots=1, seed=0, analytic=True)
    grad_err = float(np.max(np.abs(
        gradient_shot(spec, params, H, plan) - gradient_exact(spec, params, H))))
    metric_err = float(np.max(np.abs(
        metric_shot(spec, params, plan) - metric_exact(spec, params))))

    state = prepare_state(spec, params)
    obs = PauliString.from_ops({0: "Z", 1: "Z"})
    exact = expectation(state, WeightedPauliSum(3, [(1.0, obs)]))
    shot_grid = (100, 1000, 10_000, 100_000)
    reps = 48
    log_err = []
    for shots in shot_grid:
        errs = []
        for rep in range(reps):
            rec = sample_pauli_expectation(
                state, obs, ShotPlan(shots=shots, seed=11),
                circuit_id=f"acc5:s{shots}:r{rep}")
            errs.append(abs(rec.value - exact))
        log_err.append(math.log10(np.mean(errs)))
    slope = float(np.polyfit(np.log10(shot_grid), log_err, 1)[0])
    ok = grad_err < 1e-10 and metric_err < 1e-10 and abs(slope + 0.5) <= 0.1
    _report(5, ok, f"analytic gradient dev {grad_err:.2e}, metric dev "
            f"{metric_err:.2e} (both < 1e-10); error-vs-shots slope "
            f"{slope:.3f} within -0.5 +/- 0.1")


def test_criterion_6_loop_measurement_circuit():
    analytic = ShotPlan(shots=1, seed=0, analytic=True)
    devs = []
    for L in (2, 3, 4):
        spec = AnsatzSpec(L=L, N=2, boundary="periodic")
        params = init_params(spec, seed=L) + 0.2
        rec = ybar_hadamard(spec, params, analytic)
        # independent reference: the controlled loop circuit on an
        # (L+1)-qubit register, built from dense braids
        psi = prepare_state(spec, params).amplitudes
        want = 2 * oracles.ancilla_mean(oracles.loop_ancilla_state(psi), "X")
        devs.append(abs(rec.value - want))
    analytic_ok = max(devs) < 1e-10

    _, spec8, state8, _, _ = _optimized(8, 1, 0.0)
    values = []
    for run in range(5):
        plan = ShotPlan(shots=1024, seed=0)
        rec = ybar_hadamard(spec8, state8.params, plan,
                            circuit_id=f"acc6:run{run}")
        values.append(rec.value)
    estimate = float(np.mean(values))
    sampled_err = abs(abs(estimate) - math.sqrt(2))

    # the optimized state is a loop eigenstate, which a wrong braid
    # direction can leave unchanged; a random ring state is not
    spec4 = AnsatzSpec(L=4, N=2, boundary="periodic")
    params4 = np.random.default_rng(2).uniform(-np.pi, np.pi, parameter_count(spec4))
    want4 = 2 * oracles.ancilla_mean(
        oracles.loop_ancilla_state(prepare_state(spec4, params4).amplitudes), "X")
    ring = float(np.mean([ybar_hadamard(spec4, params4, ShotPlan(shots=1024, seed=0),
                                        circuit_id=f"acc6:ring4:run{run}").value
                          for run in range(5)]))
    ring_se = 2 * math.sqrt((1 - (want4 / 2) ** 2) / (5 * 1024))
    ring_dev = abs(ring - want4) / ring_se
    ok = analytic_ok and sampled_err < 0.1 and ring_dev < 4
    _report(6, ok, f"analytic dev from ancilla-circuit oracle {max(devs):.2e} < 1e-10; "
            f"5x1024-shot estimate {estimate:.4f}, ||est|-sqrt2| = {sampled_err:.3f} < 0.1; "
            f"L=4 random ring 5x1024-shot estimate {ring:.4f} vs oracle {want4:.4f}, "
            f"{ring_dev:.2f} SE < 4")


def test_criterion_7_zne_bias_reduction():
    mp, spec, state, _, _ = _optimized(6, 0, 0.0)
    circuit = ansatz_circuit(spec, state.params)
    H = build_hamiltonian(mp)
    report = zne_pipeline(circuit, H, NoiseModel(p2=0.01), ZneSchedule(),
                          trajectories=10_000, seed=0)
    clean = report["noiseless_reference"]
    unmitigated = abs(report["estimates"][0] - clean)
    mitigated = abs(report["extrapolated"] - clean)
    ok = mitigated <= 0.5 * unmitigated
    _report(7, ok, f"unmitigated bias {unmitigated:.4f}, extrapolated bias "
            f"{mitigated:.4f} (factors 1.0:0.2:3.0, degree 2, 1e4 "
            "trajectories, L=6)")


def test_criterion_8_parameter_counts():
    ok = True
    checked = 0
    for L in (2, 3, 4, 6, 8, 12):
        for N in (1, 2, 3):
            periodic = parameter_count(AnsatzSpec(L=L, N=N, boundary="periodic"))
            opened = parameter_count(AnsatzSpec(L=L, N=N, boundary="open"))
            ok = ok and periodic == 3 * L * N and opened == (3 * L - 1) * N
            checked += 1
    _report(8, ok, f"3LN periodic and (3L-1)N open for {checked} (L, N) pairs")


def test_criterion_9_determinism():
    checks = []

    spec = AnsatzSpec(L=4, N=2, boundary="open")
    mp = ModelParams(L=4)
    a, _ = optimize(spec, mp, OptimizeOptions(seed=5))
    b, _ = optimize(spec, mp, OptimizeOptions(seed=5))
    checks.append(("optimize", np.array_equal(a.params, b.params)
                   and a.energy == b.energy))

    state = prepare_state(spec, a.params)
    plan = ShotPlan(shots=512, seed=9)
    p1 = correlator_profile_shot(state, plan, runs=3)
    p2 = correlator_profile_shot(state, plan, runs=3)
    checks.append(("correlator shots", p1 == p2))

    H = build_hamiltonian(mp)
    g1 = gradient_shot(spec, a.params, H, plan)
    g2 = gradient_shot(spec, a.params, H, plan)
    m1 = metric_shot(spec, a.params, plan)
    m2 = metric_shot(spec, a.params, plan)
    checks.append(("gradient/metric shots",
                   np.array_equal(g1, g2) and np.array_equal(m1, m2)))

    pspec = AnsatzSpec(L=4, N=2, boundary="periodic")
    pparams = init_params(pspec, seed=1)
    y1 = ybar_hadamard(pspec, pparams, plan)
    y2 = ybar_hadamard(pspec, pparams, plan)
    checks.append(("loop-operator shots", y1 == y2))

    circuit = ansatz_circuit(spec, a.params)
    sched = ZneSchedule(factors=(1.0, 2.0, 3.0), degree=1)
    z1 = zne_pipeline(circuit, H, NoiseModel(p2=0.02), sched, 300, seed=2)
    z2 = zne_pipeline(circuit, H, NoiseModel(p2=0.02), sched, 300, seed=2)
    checks.append(("zne pipeline", z1 == z2))

    rec1 = sample_pauli_expectation(state, PauliString.from_ops({0: "X"}),
                                    plan, circuit_id="acc9")
    rec2 = sample_pauli_expectation(state, PauliString.from_ops({0: "X"}),
                                    plan, circuit_id="acc9")
    checks.append(("pauli sampling", rec1 == rec2))

    ok = all(flag for _, flag in checks)
    detail = ", ".join(f"{name}: {'bit-identical' if flag else 'DIVERGED'}"
                       for name, flag in checks)
    _report(9, ok, detail)
