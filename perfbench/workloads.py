"""The benchmark's three workloads: inputs made from a seed, one timed
operation on the public API of `isingdefect`, and output checks.

Every workload is a closed loop of operations run one after another by one
process. `make_input(workload, seed, index)` is the only source of inputs, so
the same (seed, index) always gives the same operation. `run_op` is the timed
part; `describe` and `check` run after the clock has stopped.

A check returns a list of failure strings, empty when the output is right.
Statistical checks allow 6 binomial standard errors per estimate, computed
from the exact mean with a floor of 2/shots, so that an estimate whose exact
mean sits next to +/-1 cannot fail on one unlucky shot.
"""
from __future__ import annotations

import hashlib
import json
import math
import time

import numpy as np

from isingdefect import (
    AnsatzSpec,
    ModelParams,
    NoiseModel,
    OptimizeOptions,
    ShotPlan,
    ZneSchedule,
    ansatz_circuit,
    build_hamiltonian,
    cli,
    correlator_profile,
    correlator_profile_shot,
    derivative_state,
    expectation,
    fold_gates,
    gradient_exact,
    gradient_shot,
    init_params,
    metric_exact,
    metric_shot,
    optimize,
    prepare_state,
    ybar_exact,
    ybar_hadamard,
    zne_pipeline,
)
from isingdefect.statevector import pauli_apply_raw, sum_apply_raw

WORKLOADS = ("ground", "zne", "scan")

Z_LIMIT = 6.0

# ground: two L=8 periodic instances per operation, the clean ring (real
# oracle) and the ring at v=4 (complex oracle, step halvings). Over 16 init
# seeds their iteration counts vary by 10-12% (coefficient of variation),
# against 48% for the open v=0 chain, whose time to solution would swamp
# the run-to-run spread.
GROUND_INSTANCES = ((8, 1, 0.0), (8, 1, 4.0))
GROUND_REL_TOL = 1e-3

# zne: L=8 open chain with N=8 layers: 184 gates, 56 of them noisy, so the
# noise bias (about 1.1) is close to the L=12 fig2b circuit's.
ZNE_SPEC = AnsatzSpec(L=8, N=8, boundary="open")
ZNE_NOISE = NoiseModel(p2=0.01)
ZNE_SCHEDULE = ZneSchedule(factors=(1.0, 2.0, 3.0), degree=2)
ZNE_TRAJECTORIES = 2048  # one full chunk per fold factor

# zne, shot stage: gradient and metric at L=8 periodic, then the fig3c (loop
# operator) and fig2c (correlator) measurement stages at L=12.
SHOT_SPEC = AnsatzSpec(L=8, N=4, boundary="periodic")
SHOT_MODEL = ModelParams(L=8, b=1)
SHOTS = 1024
YBAR_SPEC = AnsatzSpec(L=12, N=6, boundary="periodic")
YBAR_RUNS, YBAR_SHOTS = 5, 1024
CORR_SPEC = AnsatzSpec(L=12, N=6, boundary="open")
CORR_RUNS, CORR_SHOTS = 10, 8192

# scan: one real (v=0) and one complex (v>0) dense diagonalization at L=11.
SCAN_L, SCAN_B = 11, 1


def _draw(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def make_input(workload: str, seed: int, index: int) -> dict:
    """Operation `index` of a run with workload seed `seed`."""
    tag = WORKLOADS.index(workload)
    rng = _draw(seed, tag, index)
    if workload == "ground":
        seeds = rng.integers(0, 2**31, len(GROUND_INSTANCES)).tolist()
        return {"instances": [[L, b, v, s] for (L, b, v), s in zip(GROUND_INSTANCES, seeds)]}
    if workload == "zne":
        # one circuit per run, so the bias check can pool the run's operations
        params_seed = int(_draw(seed, tag).integers(0, 2**31))
        traj_seed, shot_seed = rng.integers(0, 2**31, 2).tolist()
        return {"params_seed": params_seed, "traj_seed": traj_seed, "shot_seed": shot_seed}
    return {"v": [0.0, round(float(rng.uniform(0.5, 1.5)), 6)]}


def run_op(workload: str, inp: dict, call, out_dir) -> dict:
    """The timed operation. `call(name, fn, *args)` calls fn(*args); the
    traced run records it as a span named `name`."""
    if workload == "ground":
        solved = []
        for L, b, v, s in inp["instances"]:
            mp = ModelParams(L=L, b=b, v=v)
            spec = AnsatzSpec(L=L, N=L // 2, boundary=mp.boundary)
            state, trace = call("bench.optimize", optimize, spec, mp, OptimizeOptions(seed=s))
            solved.append((mp, state, trace))
        return {"solved": solved}
    if workload == "zne":
        t0 = time.perf_counter()
        params = init_params(ZNE_SPEC, inp["params_seed"])
        circuit = ansatz_circuit(ZNE_SPEC, params)
        H = build_hamiltonian(ModelParams(L=ZNE_SPEC.L))
        report = call("bench.zne_pipeline", zne_pipeline, circuit, H, ZNE_NOISE,
                      ZNE_SCHEDULE, ZNE_TRAJECTORIES, inp["traj_seed"])
        zne_s = time.perf_counter() - t0
        return {"params": params, "circuit": circuit, "H": H, "report": report,
                "zne_s": zne_s, **_run_shots(inp["shot_seed"], call)}
    config = cli.parse_config_text(
        f"kind = energy-scan\nL = {SCAN_L}\nb = {SCAN_B}\n"
        f"v = {','.join(repr(v) for v in inp['v'])}\n")
    record = call("bench.cli_run", cli.run, config, out_dir)
    return {"record": record, "out_dir": out_dir}


def _run_shots(s: int, call) -> dict:
    H = build_hamiltonian(SHOT_MODEL)
    params = init_params(SHOT_SPEC, s)
    plan = ShotPlan(shots=SHOTS, seed=s)
    grad_recs, metric_recs = [], []
    grad = call("bench.gradient_shot", gradient_shot, SHOT_SPEC, params, H, plan, grad_recs)
    metric = call("bench.metric_shot", metric_shot, SHOT_SPEC, params, plan, metric_recs)
    yparams = init_params(YBAR_SPEC, s)
    ybars = [
        call("bench.ybar_hadamard", ybar_hadamard, YBAR_SPEC, yparams,
             ShotPlan(shots=YBAR_SHOTS, seed=s), f"ybar:L12:run{run}")
        for run in range(YBAR_RUNS)
    ]
    psi = call("bench.prepare_state", prepare_state, CORR_SPEC, init_params(CORR_SPEC, s))
    corr_recs = []
    rows = call("bench.correlator_profile_shot", correlator_profile_shot, psi,
                ShotPlan(shots=CORR_SHOTS, seed=s), CORR_RUNS, None, corr_recs)
    return {"shot_H": H, "shot_params": params, "grad": grad, "metric": metric,
            "grad_recs": grad_recs, "metric_recs": metric_recs,
            "yparams": yparams, "ybars": ybars, "psi": psi, "rows": rows,
            "corr_recs": corr_recs}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def describe(workload: str, out: dict) -> dict:
    """Work count and output digest of a finished operation, plus the
    quantities the traced run derives layer figures from."""
    if workload == "ground":
        parts = []
        for _, state, trace in out["solved"]:
            parts += [state.params, np.array([r.energy for r in trace])]
        iters = sum(len(trace) for _, _, trace in out["solved"])
        return {"work": iters, "digest": _digest(*parts), "iterations": iters}
    if workload == "zne":
        p2 = ZNE_NOISE.p2
        gates = noisy = 0
        clean = []
        for factor in ZNE_SCHEDULE.factors:
            folded = fold_gates(out["circuit"], factor)
            gates += len(folded.gates)
            noisy += folded.two_qubit_count
            clean.append((1.0 - p2) ** folded.two_qubit_count)
        report = out["report"]
        recs = out["grad_recs"] + out["metric_recs"] + out["corr_recs"] + out["ybars"]
        return {
            "work": ZNE_TRAJECTORIES * gates,
            "work_s": out["zne_s"],
            "digest": _digest(json.dumps(report, sort_keys=True).encode(), out["grad"],
                              out["metric"], np.array([r.value for r in out["ybars"]]),
                              np.array(out["rows"], dtype=float)),
            "trajectories": ZNE_TRAJECTORIES * len(ZNE_SCHEDULE.factors),
            "noisy_gate_rows": ZNE_TRAJECTORIES * noisy,
            "clean_frac": float(np.mean(clean)),
            "circuits": len(recs),
            "shots": sum(r.shots_used for r in recs),
            "pool": {"unmitigated": report["estimates"][0],
                     "extrapolated": report["extrapolated"],
                     "clean": report["noiseless_reference"]},
        }
    out_dir = out["out_dir"]
    record = out["record"]
    files = list(record.outputs) + ["record.json"]
    nbytes = sum((out_dir / name).stat().st_size for name in files)
    csv = (out_dir / record.outputs[0]).read_bytes()
    return {"work": len(csv.splitlines()) - 1, "digest": _digest(csv),
            "files_written": len(files), "bytes_written": nbytes}


def _lanczos(H, k: int):
    """k lowest eigenvalues of H by Lanczos over sum_apply_raw; independent
    of the dense oracle in `isingdefect.model`."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    dim = 1 << H.n_qubits
    op = LinearOperator((dim, dim), dtype=np.complex128,
                        matvec=lambda x: sum_apply_raw(np.ravel(x).astype(np.complex128), H))
    # a generic start vector: a symmetric one would miss the other sectors
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    w = eigsh(op, k=k, which="SA", v0=v0, tol=0, return_eigenvectors=False)
    return np.sort(w.real)


def _z_fail(label, estimate, exact, var, n_shots, product=0.0):
    """Failure string when |estimate - exact| exceeds Z_LIMIT binomial SEs.

    `product` is the SE product of two estimates multiplied together; their
    joint error adds up to Z_LIMIT**2 times it, which the linear SE misses
    where both means are 0."""
    se = math.sqrt(var + (2.0 / n_shots) ** 2)
    if abs(estimate - exact) > Z_LIMIT * se + Z_LIMIT**2 * product:
        return [f"{label}: {estimate:.6g} vs exact {exact:.6g} (se {se:.3g})"]
    return []


def _check_shots(out) -> list:
    fails = []
    H, params = out["shot_H"], out["shot_params"]
    P = len(params)
    psi = prepare_state(SHOT_SPEC, params).amplitudes
    D = np.array([derivative_state(SHOT_SPEC, params, p).amplitudes for p in range(P)])
    # gradient: component p sums 2 c_t over per-term ancilla means Re<D_p|h_t psi>
    coeffs = np.array([c.real for c, _ in H.terms()])
    means = np.real(D.conj() @ np.array([pauli_apply_raw(psi, s) for _, s in H.terms()]).T)
    g_var = 4.0 * ((1.0 - means**2) / SHOTS) @ coeffs**2
    g_exact = gradient_exact(SHOT_SPEC, params, H)
    for p in range(P):
        fails += _z_fail(f"gradient[{p}]", out["grad"][p], g_exact[p], g_var[p], SHOTS)
    # metric: g_pq = x_pq - y_p y_q with y_p = Im<D_p|psi> and x_pq = g_pq + y_p y_q
    y = np.imag(D.conj() @ psi)
    m_exact = metric_exact(SHOT_SPEC, params)
    x = m_exact + np.outer(y, y)
    y_var = (1.0 - y**2) / SHOTS + (2.0 / SHOTS) ** 2
    for p in range(P):
        for q in range(p, P):
            dyp = 2.0 * y[p] if p == q else y[q]
            var = (1.0 - x[p, q] ** 2) / SHOTS + dyp**2 * y_var[p]
            if p != q:
                var += y[p] ** 2 * y_var[q]
            fails += _z_fail(f"metric[{p},{q}]", out["metric"][p, q], m_exact[p, q], var,
                             SHOTS, math.sqrt(y_var[p] * y_var[q]))
    # loop operator: estimate = 2 x ancilla mean, exact mean = ybar_exact / 2
    ybar = ybar_exact(prepare_state(YBAR_SPEC, out["yparams"]))
    for run, rec in enumerate(out["ybars"]):
        var = 4.0 * (1.0 - (ybar / 2.0) ** 2) / YBAR_SHOTS
        fails += _z_fail(f"ybar[{run}]", rec.value, ybar, var, YBAR_SHOTS / 2.0)
    # correlator: mean of CORR_RUNS estimates per distance r
    exact = {r: value for r, value, _ in correlator_profile(out["psi"])}
    n = CORR_SHOTS * CORR_RUNS
    for r, value, _ in out["rows"]:
        c = exact[r]
        fails += _z_fail(f"correlator[r={r}]", value, c, (1.0 - c * c) / n, n)
    return fails


def check(workload: str, inp: dict, out: dict) -> list:
    if workload == "ground":
        fails = []
        for mp, state, trace in out["solved"]:
            e0 = _lanczos(build_hamiltonian(mp), 1)[0]
            rel = (state.energy - e0) / abs(e0)
            if not state.converged or not -1e-9 <= rel < GROUND_REL_TOL:
                fails.append(f"{mp}: converged={state.converged}, energy "
                             f"{state.energy:.12g} vs Lanczos {e0:.12g} (rel {rel:.3g})")
        return fails
    if workload == "zne":
        fails = _check_shots(out)
        exact = expectation(prepare_state(ZNE_SPEC, out["params"]), out["H"])
        clean = out["report"]["noiseless_reference"]
        if abs(clean - exact) > 1e-9 * max(1.0, abs(exact)):
            fails.append(f"noiseless_reference {clean!r} != exact <H> {exact!r}")
        return fails
    fails = []
    lines = (out["out_dir"] / out["record"].outputs[0]).read_text().splitlines()[1:]
    for line in lines:
        v, _, energy, gap = (float(tok) for tok in line.split(","))
        e = _lanczos(build_hamiltonian(ModelParams(L=SCAN_L, b=SCAN_B, v=v)), 2)
        if abs(energy - e[0]) > 1e-9 * abs(e[0]) or abs(gap - (e[1] - e[0])) > 1e-7:
            fails.append(f"scan v={v}: energy {energy!r} gap {gap!r} vs Lanczos "
                         f"{float(e[0])!r} gap {float(e[1] - e[0])!r}")
    if len(lines) != len(inp["v"]):
        fails.append(f"scan wrote {len(lines)} rows for {len(inp['v'])} points")
    return fails

