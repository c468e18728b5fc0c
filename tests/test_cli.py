"""Config parsing, validation diagnostics, run plumbing, and exit codes."""
import json
import math
import os
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from isingdefect import cli, observables
from isingdefect.cli import (
    KINDS,
    ExperimentConfig,
    config_hash,
    load_config,
    main,
    parse_config_text,
    run,
    validate,
)
from isingdefect.model import ModelParams, build_hamiltonian, energy_scan, ground_energy_gap
from isingdefect.observables import correlator_profile
from isingdefect.ansatz import AnsatzSpec, prepare_state
from isingdefect.qng import OptimizeOptions, optimize

import oracles
from oracles import exact_ground

REPO = Path(__file__).resolve().parents[1]


def _write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_full_key_set():
    cfg = parse_config_text(
        """
        # comment line
        kind = correlator
        L = 8,10,12   # trailing comment
        b = 1
        v = 0,4
        j = 6
        N = 3
        eta = 0.02
        max_iters = 50
        runs = 7
        shots = 2048
        analytic = true
        seed = 9
        """
    )
    assert cfg.kind == "correlator"
    assert cfg.L == (8, 10, 12)
    assert cfg.v == (0.0, 4.0)
    assert cfg.j == 6 and cfg.N == 3
    assert cfg.eta == 0.02 and cfg.max_iters == 50
    assert cfg.runs == 7 and cfg.shots == 2048
    assert cfg.analytic is True and cfg.seed == 9


def test_parse_rejects_malformed_input():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("kind = optimize\nL = 4\nbogus = 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config_text("kind = optimize\nL = 4\nL = 6\n")
    with pytest.raises(ValueError, match="kind"):
        parse_config_text("L = 4\n")
    with pytest.raises(ValueError, match="L"):
        parse_config_text("kind = optimize\n")
    with pytest.raises(ValueError, match="expected key"):
        parse_config_text("kind = optimize\nL = 4\njust words\n")
    with pytest.raises(ValueError, match="analytic"):
        parse_config_text("kind = optimize\nL = 4\nanalytic = maybe\n")


def test_validate_accepts_template_like_config():
    cfg = ExperimentConfig(kind="correlator", L=(12,), b=0, v=(0.0, 4.0), j=6)
    assert validate(cfg) == []


def test_validate_flags_each_problem():
    diags = validate(ExperimentConfig(kind="optimize", L=(16,)))
    assert any("statevector range exceeded" in d for d in diags)
    assert validate(ExperimentConfig(kind="energy-scan", L=(1000,))) == []
    diags = validate(ExperimentConfig(kind="energy-scan", L=(1001,)))
    assert any("energy-scan needs L <= 1000" in d for d in diags)
    diags = validate(ExperimentConfig(kind="optimize", L=(5,)))
    assert any("odd" in d for d in diags)
    assert validate(ExperimentConfig(kind="optimize", L=(5,), N=2)) == []
    diags = validate(ExperimentConfig(kind="optimize", L=(4,), shots=-5))
    assert any("shots" in d for d in diags)
    diags = validate(ExperimentConfig(kind="nonsense", L=(4,)))
    assert any("kind" in d for d in diags)
    diags = validate(ExperimentConfig(kind="optimize", L=(4,), b=2))
    assert diags
    diags = validate(ExperimentConfig(kind="zne", L=(4,),
                                      factors=(2.0, 1.0)))
    assert any("factor" in d for d in diags)
    diags = validate(ExperimentConfig(kind="zne", L=(4,), p2=1.5))
    assert diags
    diags = validate(ExperimentConfig(kind="optimize", L=(4,), seed=-1))
    assert any("seed" in d for d in diags)
    diags = validate(ExperimentConfig(kind="optimize", L=(4,), N=0))
    assert any("need at least one layer" in d for d in diags)
    for kind in ("optimize", "correlator", "ybar", "zne"):
        diags = validate(ExperimentConfig(kind=kind, L=(1,), N=1))
        assert any("at least two sites" in d for d in diags), kind
    diags = validate(ExperimentConfig(kind="optimize", L=(4,), eta=-0.05))
    assert any("eta must be positive and finite" in d for d in diags)
    diags = validate(ExperimentConfig(kind="optimize", L=(4,), max_iters=0))
    assert any("max_iters must be at least 1" in d for d in diags)
    # two instances would write one file
    diags = validate(ExperimentConfig(kind="optimize", L=(4, 4)))
    assert any("L lists a chain length more than once" in d for d in diags)
    diags = validate(ExperimentConfig(kind="optimize", L=(4,), v=(0.1234567, 0.1234568)))
    assert any("share the file tag v0p123457" in d for d in diags)
    # P = 41e6 parameters: the metric alone is 1.3e16 bytes
    diags = validate(ExperimentConfig(kind="optimize", L=(14,), N=10**6))
    assert any("L=14: optimize needs" in d and "physical memory" in d for d in diags)


def test_validate_counts_the_zne_trajectory_batch(monkeypatch):
    # on a 10 MB host, L=10 with N=1 optimizes in 3.4 MB, but zne's
    # trajectories (CHUNK states and the clean one, a copy of them and the
    # error records of the circuit folded to factor 3) need 73 MB
    pages = {"SC_PHYS_PAGES": 2560, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    cfg = ExperimentConfig(kind="zne", L=(10,), N=1)
    assert validate(cfg) == ["L=10: zne needs 0.0677 GiB for its trajectories; physical "
                             "memory is 0.00977 GiB"]
    assert validate(replace(cfg, kind="optimize")) == []


def test_energy_scan_v_tags_name_only_dumped_hamiltonians(tmp_path):
    # a scan writes scan_L{L}.csv; only --dump-hamiltonian names files by v
    cfg = ExperimentConfig(kind="energy-scan", L=(12,), b=1, v=(1.0000001, 1.0000002))
    assert validate(cfg) == []
    assert run(cfg, tmp_path / "scan").outputs == ["scan_L12.csv"]
    with pytest.raises(ValueError, match="share the file tag v1$"):
        run(cfg, tmp_path / "dump", dump_hamiltonian=True)
    assert not (tmp_path / "dump").exists()


def test_validate_refuses_zne_factors_that_fold_alike(tmp_path, capsys):
    # L=4 open, N=2: 6 two-qubit gates fold 0, 0 and 1 times for 1, 1.1, 1.2
    text = ("kind = zne\nL = 4\nN = 2\nb = 0\nv = 0\n"
            "factors = 1,1.1,1.2\nmax_iters = 3\n")
    assert main(["validate", _write_cfg(tmp_path, text)]) == 1
    assert ("L=4: the noise factors fold to 2 distinct factors; a degree-2 fit "
            "needs 3") in capsys.readouterr().out
    assert validate(parse_config_text(text.replace("1.1,1.2", "2,3"))) == []


def test_shipped_config_hashes_are_unchanged():
    # the config's defaults are read from the library types; the canonical
    # text, and so every shipped config's hash, is the same as before
    want = {"fig2b": "2b092cf6f662", "fig2c": "275eca415d2c", "fig3c": "9728a5425237",
            "fig3d": "64b40998524a", "scan": "4b36f79ce56f"}
    got = {name: config_hash(load_config(REPO / "configs" / f"{name}.cfg"))[:12]
           for name in want}
    assert got == want


def test_mean_se_is_the_standard_error_of_the_mean():
    # two runs a and b: sample sd |a - b| / sqrt(2), so SE |a - b| / 2
    mean, se = cli._mean_se([0.25, 1.75])
    assert mean == 1.0 and se == pytest.approx(0.75, rel=1e-15)
    assert cli._mean_se([0.5]) == (0.5, 0.0)


def test_config_hash_tracks_content():
    a = ExperimentConfig(kind="optimize", L=(4,))
    b = ExperimentConfig(kind="optimize", L=(4,))
    c = ExperimentConfig(kind="optimize", L=(4,), seed=1)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 64


def test_shipped_templates_parse_and_validate():
    paths = sorted((REPO / "configs").glob("*.cfg"))
    assert {"fig2b", "fig2c", "fig3c", "fig3d", "scan"} <= {p.stem for p in paths}
    for path in paths:
        assert validate(load_config(path)) == [], path.name


def test_run_optimize_writes_trace_and_record(tmp_path):
    cfg = ExperimentConfig(kind="optimize", L=(4,), b=0, v=(0.0,),
                           analytic=True)
    record = run(cfg, tmp_path / "out")
    assert (tmp_path / "out" / "record.json").exists()
    assert "trace_L4_v0.csv" in record.outputs
    inst = record.results["instances"][0]
    assert inst["converged"] is True
    assert inst["rel_error"] < 1e-3
    # analytic measurement reproduces the variational energy exactly
    assert inst["measured_energy"] == pytest.approx(inst["energy"], abs=1e-12)
    assert inst["measured_std_error"] == 0.0
    trace = (tmp_path / "out" / "trace_L4_v0.csv").read_text().splitlines()
    assert trace[0] == "iter,energy,grad_norm,rel_error"
    assert len(trace) > 2
    manifest = json.loads((tmp_path / "out" / "record.json").read_text())
    assert manifest["config_hash"] == config_hash(cfg)
    assert set(manifest["outputs"]) == set(record.outputs)


def test_run_correlator_matches_exact_profile(tmp_path):
    cfg = ExperimentConfig(kind="correlator", L=(4,), b=0, v=(0.0,),
                           analytic=True, runs=1, shots=1)
    record = run(cfg, tmp_path / "out")
    text = (tmp_path / "out" / "correlator_L4_v0.csv").read_text()
    rows = [line.split(",") for line in text.splitlines()[1:]]
    spec = AnsatzSpec(L=4, N=2, boundary="open")
    state, _ = optimize(spec, ModelParams(L=4), OptimizeOptions(seed=0))
    exact_rows = correlator_profile(prepare_state(spec, state.params))
    for (r_txt, val_txt, se_txt), (r, val, _) in zip(rows, exact_rows):
        assert int(r_txt) == r
        assert float(val_txt) == pytest.approx(val, abs=1e-12)
        assert float(se_txt) == 0.0
    assert record.results["instances"][0]["j"] == 2


def test_run_ybar_analytic_hits_exact_value(tmp_path):
    cfg = ExperimentConfig(kind="ybar", L=(4,), b=1, v=(0.0,), analytic=True,
                           runs=2, shots=1)
    record = run(cfg, tmp_path / "out")
    inst = record.results["instances"][0]
    assert inst["estimate"] == pytest.approx(inst["exact"], abs=1e-9)
    # variational, not exact, ground state: loop value lands near -sqrt(2)
    assert inst["exact"] == pytest.approx(-math.sqrt(2), abs=0.01)
    lines = (tmp_path / "out" / "ybar.csv").read_text().splitlines()
    assert lines[0] == "L,v,estimate,std_error,exact"
    assert len(lines) == 2


def test_run_ybar_reads_each_loop_overlap_once(tmp_path, monkeypatch):
    # the estimate's runs are drawn from one overlap, the exact value reads
    # a second: 2 per instance, not 1 + runs
    calls = []
    overlap = observables._loop_overlap
    monkeypatch.setattr(observables, "_loop_overlap",
                        lambda state: calls.append(1) or overlap(state))
    cfg = ExperimentConfig(kind="ybar", L=(4,), b=1, v=(0.0, 1.0), runs=5,
                           shots=64, max_iters=3)
    run(cfg, tmp_path / "out")
    assert len(calls) <= 2 * 2


def test_run_energy_remeasurement_reads_each_term_once(tmp_path, monkeypatch):
    calls = []
    readout = cli.pauli_expectation
    monkeypatch.setattr(cli, "pauli_expectation",
                        lambda state, term: calls.append(term) or readout(state, term))
    cfg = ExperimentConfig(kind="optimize", L=(4,), b=1, runs=5, shots=64, max_iters=3)
    record = run(cfg, tmp_path / "out")
    assert len(calls) == len(list(build_hamiltonian(ModelParams(L=4, b=1)).terms()))
    assert math.isfinite(record.results["instances"][0]["measured_energy"])


def _package_python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def test_package_import_leaves_scipy_stats_unloaded():
    # scipy.stats adds about a second to every process that imports the
    # package
    code = "import sys, isingdefect; print('scipy.stats' in sys.modules)"
    assert _package_python(code) == "False"


def test_package_import_leaves_scipy_unloaded():
    # scipy.linalg would be most of the package's import time; only the QNG
    # solve and the free-fermion reduction import it, when they run
    code = ("import sys, isingdefect, isingdefect.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert _package_python(code) == "[]"


def test_zne_and_shot_estimators_leave_scipy_linalg_unloaded():
    code = """
import sys
from isingdefect import (AnsatzSpec, ModelParams, NoiseModel, ShotPlan, ZneSchedule,
                         ansatz_circuit, build_hamiltonian, correlator_profile_shot,
                         gradient_shot, init_params, metric_shot, prepare_state,
                         ybar_hadamard, zne_pipeline)
spec = AnsatzSpec(L=4, N=2, boundary="open")
zne_pipeline(ansatz_circuit(spec, init_params(spec, 0)), build_hamiltonian(ModelParams(L=4)),
             NoiseModel(p2=0.02), ZneSchedule(factors=(1.0, 2.0, 3.0), degree=1), 64, 0)
ring = AnsatzSpec(L=4, N=2, boundary="periodic")
params = init_params(ring, 0)
plan = ShotPlan(shots=64, seed=0)
gradient_shot(ring, params, build_hamiltonian(ModelParams(L=4, b=1)), plan)
metric_shot(ring, params, plan)
ybar_hadamard(ring, params, plan)
correlator_profile_shot(prepare_state(ring, params), plan, runs=2)
print("scipy.linalg" in sys.modules)
"""
    assert _package_python(code) == "False"


def test_run_energy_scan_writes_rows(tmp_path):
    cfg = ExperimentConfig(kind="energy-scan", L=(4,), b=1,
                           v=(0.0, 0.5, 1.0))
    record = run(cfg, tmp_path / "out")
    lines = (tmp_path / "out" / "scan_L4.csv").read_text().splitlines()
    assert lines[0] == "v,L_over_lB,ground_energy,gap"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == pytest.approx(
        exact_ground(ModelParams(L=4, b=1)).ground_energy, abs=1e-9)
    assert record.results["instances"][0]["points"] == 3


def test_run_energy_scan_past_the_dense_limit(tmp_path):
    # [DERIVED] critical ring: E0 = -2 / sin(pi / 2L); open chain: the
    # free-fermion singular-value oracle
    L = 40
    for b, want in ((1, -2.0 / math.sin(math.pi / (2 * L))),
                    (0, oracles.free_fermion_ground_energy(L))):
        cfg = ExperimentConfig(kind="energy-scan", L=(L,), b=b, v=(0.0,))
        run(cfg, tmp_path / f"b{b}")
        row = (tmp_path / f"b{b}" / f"scan_L{L}.csv").read_text().splitlines()[1]
        assert float(row.split(",")[2]) == pytest.approx(want, abs=1e-12)


def test_energy_scan_reaches_the_self_dual_point(tmp_path, capsys):
    # v = -200 puts L e^{-4v} past the float range: the ratio is written inf
    cfg = _write_cfg(tmp_path, "kind = energy-scan\nL = 8\nb = 1\nv = 0,inf,-200\n")
    assert main(["validate", cfg]) == 0
    assert "ok" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    rows = [line.split(",") for line in (out / "scan_L8.csv").read_text().splitlines()]
    for row, v, ratio in ((rows[2], math.inf, "0"), (rows[3], -200.0, "inf")):
        energy, gap = ground_energy_gap(ModelParams(L=8, b=1, v=v))
        assert row[1:] == [ratio, f"{energy:.17g}", f"{gap:.17g}"]


def test_runtime_never_builds_a_dense_matrix(tmp_path, monkeypatch):
    import scipy.linalg

    import isingdefect.paulis as paulis

    def refuse(*args, **kwargs):
        raise AssertionError("dense path reached")

    monkeypatch.setattr(cli, "dense_matrix", refuse)
    monkeypatch.setattr(paulis, "dense_matrix", refuse)
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    cfg = ExperimentConfig(kind="energy-scan", L=(11,), b=1, v=(0.0, 1.0))
    assert run(cfg, tmp_path / "scan").results["instances"][0]["points"] == 2
    mp = ModelParams(L=6, b=1, v=4.0)
    state, trace = optimize(AnsatzSpec(L=6, N=3, boundary="periodic"), mp)
    assert state.converged and state.stop_reason == "rel_tol"
    assert trace[-1].rel_error < 1e-3


def test_dump_hamiltonian_refused_past_the_dense_limit(tmp_path, capsys):
    # refused before any work, not after a 4.3 GB allocation
    for text in ("kind = energy-scan\nL = 13\n", "kind = optimize\nL = 14\n"):
        cfg = _write_cfg(tmp_path, text)
        code = main(["run", cfg, "--out-dir", str(tmp_path / "x"),
                     "--dump-hamiltonian"])
        assert code == 1
        assert "dump_hamiltonian" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_run_zne_writes_report(tmp_path):
    cfg = ExperimentConfig(kind="zne", L=(4,), b=0, v=(0.0,),
                           factors=(1.0, 2.0, 3.0), degree=1,
                           trajectories=50, p2=0.02)
    record = run(cfg, tmp_path / "out")
    report = json.loads((tmp_path / "out" / "zne_L4_v0.json").read_text())
    assert report["factors"] == [1.0, 2.0, 3.0]
    assert len(report["estimates"]) == 3
    assert "extrapolated" in report and "noiseless_reference" in report
    inst = record.results["instances"][0]
    assert inst["extrapolated_std_error"] == report["extrapolated_std_error"] > 0
    assert inst["noiseless_reference"] == pytest.approx(
        exact_ground(ModelParams(L=4)).ground_energy, rel=1e-3)


# One small two-instance config per kind, run with every dump flag it allows.
KIND_CONFIGS = {
    "optimize": ExperimentConfig(kind="optimize", L=(4,), v=(0.0, 1.0),
                                 runs=2, shots=64, seed=5),
    "correlator": ExperimentConfig(kind="correlator", L=(4,), v=(0.0, 1.0),
                                   runs=3, shots=64, seed=5),
    "ybar": ExperimentConfig(kind="ybar", L=(4,), b=1, v=(0.0, 1.0),
                             runs=2, shots=64, seed=5),
    "energy-scan": ExperimentConfig(kind="energy-scan", L=(4,), v=(0.0, 1.0)),
    "zne": ExperimentConfig(kind="zne", L=(4,), v=(0.0, 1.0), factors=(1.0, 2.0),
                            degree=1, trajectories=40, p1=0.01, seed=5),
}


def _run_kind(kind, out_dir):
    return run(KIND_CONFIGS[kind], out_dir, dump_hamiltonian=True,
               dump_state=kind != "energy-scan")


def test_ybar_csv_tells_its_instances_apart(tmp_path):
    # two v at one L once wrote two rows that both began 4, with no v
    run(KIND_CONFIGS["ybar"], tmp_path)
    rows = [line.split(",") for line in (tmp_path / "ybar.csv").read_text().splitlines()]
    assert rows[0] == ["L", "v", "estimate", "std_error", "exact"]
    assert [(int(row[0]), float(row[1])) for row in rows[1:]] == [(4, 0.0), (4, 1.0)]


def test_csv_writes_ints_as_they_are_and_floats_at_17_digits():
    text = cli._csv("r,value,std_error", [(1, 1.0, 0.0), (2, 0.1, math.inf)])
    assert text == "r,value,std_error\n1,1,0\n2,0.10000000000000001,inf\n"


def _table(path):
    """A CSV's header and its rows, split into fields."""
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_cli_csv_floats_read_back_to_the_record(tmp_path):
    # every float a CSV holds reads back == to record.json's value, or to the
    # library's where the record keeps only a count
    def manifest(kind):
        run(KIND_CONFIGS[kind], tmp_path / kind)
        return json.loads((tmp_path / kind / "record.json").read_text())["results"]["instances"]

    for tag, inst in zip(("L4_v0", "L4_v1"), manifest("correlator")):
        header, rows = _table(tmp_path / "correlator" / f"correlator_{tag}.csv")
        assert header == "r,value,std_error" and rows[0] == ["1", "1", "0"]
        assert [[int(r), float(x), float(se)] for r, x, se in rows] == inst["profile"]
    instances = manifest("ybar")
    header, rows = _table(tmp_path / "ybar" / "ybar.csv")
    assert [[int(row[0])] + [float(x) for x in row[1:]] for row in rows] == \
           [[inst[k] for k in header.split(",")] for inst in instances]
    cfg = KIND_CONFIGS["optimize"]
    for idx, (tag, inst) in enumerate(zip(("L4_v0", "L4_v1"), manifest("optimize"))):
        header, rows = _table(tmp_path / "optimize" / f"trace_{tag}.csv")
        assert header == "iter,energy,grad_norm,rel_error"
        assert rows[0][0] == "0" and float(rows[0][3]) >= 0
        assert float(rows[-1][1]) == inst["energy"]
        _, trace = optimize(AnsatzSpec(L=4, N=2), ModelParams(L=4, v=inst["v"]),
                            OptimizeOptions(seed=cfg.seed + idx))
        assert [(int(row[0]), *map(float, row[1:])) for row in rows] == \
               [astuple(r) for r in trace]
    (inst,) = manifest("energy-scan")
    header, rows = _table(tmp_path / "energy-scan" / "scan_L4.csv")
    assert header == "v,L_over_lB,ground_energy,gap" and len(rows) == inst["points"] == 2
    assert [tuple(map(float, row)) for row in rows] == energy_scan(4, 0, [0.0, 1.0])


def test_write_file_leaves_only_the_new_bytes(tmp_path):
    path = tmp_path / "used"
    path.write_bytes(b"x" * 4096)
    cli._write_file(path, "short\n")
    assert path.read_bytes() == b"short\n"
    array = np.arange(6.0).reshape(2, 3)
    path.write_bytes(b"x" * 4096)
    cli._write_file(path, array)
    np.save(tmp_path / "fresh.npy", array)
    assert np.array_equal(np.load(path), array)
    assert path.stat().st_size == (tmp_path / "fresh.npy").stat().st_size < 4096


@pytest.mark.parametrize("kind", KINDS)
def test_every_file_goes_through_the_one_writer(tmp_path, monkeypatch, kind):
    written = []
    write = cli._write_file
    monkeypatch.setattr(cli, "_write_file",
                        lambda path, data: written.append(path.name) or write(path, data))
    record = _run_kind(kind, tmp_path)
    assert written == record.outputs + ["record.json"]


@pytest.mark.parametrize("kind", KINDS)
def test_rerun_is_byte_identical(tmp_path, kind):
    a = _run_kind(kind, tmp_path / "a")
    b = _run_kind(kind, tmp_path / "b")
    assert a.outputs == b.outputs
    for name in a.outputs:
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes(), name
    records = [[line for line in (tmp_path / side / "record.json").read_text().splitlines()
                if '"wall_time_s"' not in line] for side in "ab"]
    assert records[0] == records[1]


_SHOT_KEYS = {"runs", "shots"}
RECORD_LAYOUTS = {
    "optimize": (["trace_{tag}.csv", "hamiltonian_{tag}.npy", "state_{tag}.npy"], [],
                 {"L", "v", "b", "energy", "exact_energy", "rel_error", "iterations",
                  "converged", "stop_reason", "measured_energy",
                  "measured_std_error"} | _SHOT_KEYS),
    "correlator": (["correlator_{tag}.csv", "hamiltonian_{tag}.npy", "state_{tag}.npy"],
                   [], {"L", "v", "j", "converged", "profile"} | _SHOT_KEYS),
    "ybar": (["hamiltonian_{tag}.npy", "state_{tag}.npy"], ["ybar.csv"],
             {"L", "v", "estimate", "std_error", "exact", "converged"} | _SHOT_KEYS),
    "energy-scan": (["hamiltonian_{tag}.npy"], [], {"L", "points"}),
    "zne": (["zne_{tag}.json", "hamiltonian_{tag}.npy", "state_{tag}.npy"], [],
            {"L", "v", "converged", "unmitigated", "extrapolated",
             "extrapolated_std_error", "noiseless_reference", "exact_energy"}),
}


@pytest.mark.parametrize("kind", KINDS)
def test_record_layout_per_kind(tmp_path, kind):
    # outputs are listed in write order: per instance its data file, then its
    # dumps; ybar.csv after every instance; a scan's table before its dumps
    per_instance, trailing, keys = RECORD_LAYOUTS[kind]
    record = _run_kind(kind, tmp_path)
    want = ["scan_L4.csv"] if kind == "energy-scan" else []
    for tag in ("L4_v0", "L4_v1"):
        want += [name.format(tag=tag) for name in per_instance]
    assert record.outputs == want + trailing
    assert [set(inst) for inst in record.results["instances"]] == \
           [keys] * (1 if kind == "energy-scan" else 2)
    manifest = json.loads((tmp_path / "record.json").read_text())
    assert set(manifest) == {"kind", "config", "config_hash", "outputs", "results",
                             "versions", "wall_time_s"}
    assert manifest["outputs"] == record.outputs


def test_rerun_into_a_used_directory_leaves_no_stale_bytes(tmp_path):
    long = ExperimentConfig(kind="energy-scan", L=(6,), b=1, v=(0.0, 0.5, 1.0))
    short = ExperimentConfig(kind="energy-scan", L=(6,), b=1, v=(0.5,))
    run(long, tmp_path / "used")
    record = run(short, tmp_path / "used")
    run(short, tmp_path / "clean")
    assert (tmp_path / "used" / "scan_L6.csv").read_bytes() == \
           (tmp_path / "clean" / "scan_L6.csv").read_bytes()
    written = json.loads((tmp_path / "used" / "record.json").read_text())
    assert written == json.loads(record.to_json())


def test_dump_flags_produce_loadable_arrays(tmp_path):
    cfg = ExperimentConfig(kind="optimize", L=(4,), analytic=True)
    record = run(cfg, tmp_path / "out", dump_hamiltonian=True, dump_state=True)
    assert "hamiltonian_L4_v0.npy" in record.outputs
    assert "state_L4_v0.npy" in record.outputs
    H = np.load(tmp_path / "out" / "hamiltonian_L4_v0.npy")
    psi = np.load(tmp_path / "out" / "state_L4_v0.npy")
    assert H.shape == (16, 16)
    assert np.allclose(H, H.conj().T)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    energy = np.vdot(psi, H @ psi).real
    assert energy == pytest.approx(record.results["instances"][0]["energy"],
                                   abs=1e-9)


def test_main_validate_exit_codes(tmp_path, capsys):
    good = _write_cfg(tmp_path, "kind = optimize\nL = 4\n", "good.cfg")
    bad = _write_cfg(tmp_path, "kind = optimize\nL = 16\n", "bad.cfg")
    assert main(["validate", good]) == 0
    assert "ok" in capsys.readouterr().out
    assert main(["validate", bad]) == 1
    assert "statevector range" in capsys.readouterr().out
    assert main(["validate", str(tmp_path / "missing.cfg")]) == 1
    # ZNE schedules that could never be fitted fail before any trajectory
    infinite = _write_cfg(tmp_path, "kind = zne\nL = 4\nfactors = 1.0,2.0,inf\n", "inf.cfg")
    assert main(["validate", infinite]) == 1
    assert "finite" in capsys.readouterr().out
    short = _write_cfg(tmp_path, "kind = zne\nL = 4\nfactors = 1.0,2.0\ndegree = 2\n",
                       "short.cfg")
    assert main(["validate", short]) == 1
    assert "at least 3 noise factors" in capsys.readouterr().out
    # eta = nan passed `eta <= 0`, and the run then rejected its first step
    for eta in ("nan", "inf"):
        cfg = _write_cfg(tmp_path, f"kind = optimize\nL = 4\neta = {eta}\n", "eta.cfg")
        assert main(["validate", cfg]) == 1
        assert "eta must be positive and finite" in capsys.readouterr().out


def test_main_run_success_and_overrides(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "kind = optimize\nL = 4\n")
    out = tmp_path / "run1"
    code = main(["run", cfg, "--out-dir", str(out), "--analytic",
                 "--seed", "3"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "kind: optimize" in printed
    manifest = json.loads((out / "record.json").read_text())
    assert "seed=3" in manifest["config"]
    assert "analytic=True" in manifest["config"]


def test_main_run_reports_nonconvergence(tmp_path):
    cfg = _write_cfg(tmp_path, "kind = optimize\nL = 4\nmax_iters = 1\n")
    out = tmp_path / "run2"
    assert main(["run", cfg, "--out-dir", str(out), "--analytic"]) == 2


def test_main_run_internal_error_is_exit_3(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "kind = optimize\nL = 4\n")
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    assert main(["run", cfg, "--out-dir", str(blocker), "--analytic"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_main_run_validation_failure_is_exit_1(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "kind = optimize\nL = 16\n")
    assert main(["run", cfg, "--out-dir", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: invalid config: ")
    assert "statevector range" in err[0]


def test_dump_state_rejected_for_energy_scan(tmp_path, capsys):
    # a scan prepares no state, so the flag must fail loudly, not no-op
    cfg = _write_cfg(tmp_path, "kind = energy-scan\nL = 4\nv = 0, 0.5\n")
    code = main(["run", cfg, "--out-dir", str(tmp_path / "x"), "--dump-state"])
    assert code == 1
    assert "dump_state" in capsys.readouterr().err
    with pytest.raises(ValueError, match="dump_state"):
        run(load_config(cfg), tmp_path / "y", dump_state=True)


def test_benchmark_imports_still_resolve():
    # the benchmark imports package names directly and calls them; a deleted
    # or renamed name, or a changed signature, would break it with no other
    # test failing
    import ast
    import importlib
    import inspect

    tree = ast.parse((REPO / "perfbench" / "workloads.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("isingdefect"):
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{node.module} lacks {missing}"
            imported.update((a.name, getattr(module, a.name)) for a in node.names)
    assert {"derivative_state", "gradient_shot", "metric_shot", "pauli_apply_raw"} <= set(imported)

    def resolve(expr):
        """(name, object) of a package name or an attribute of one, else None."""
        if isinstance(expr, ast.Name) and expr.id in imported:
            return expr.id, imported[expr.id]
        if isinstance(expr, ast.Attribute):
            owner = resolve(expr.value)
            if owner is not None:
                assert hasattr(owner[1], expr.attr), f"{owner[0]} lacks {expr.attr}"
                return f"{owner[0]}.{expr.attr}", getattr(owner[1], expr.attr)
        return None

    checked = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target, args = resolve(node.func), node.args
        if isinstance(node.func, ast.Name) and node.func.id == "call":
            # call(label, fn, *args) calls fn(*args)
            target, args = resolve(node.args[1]), node.args[2:]
        if target is None or not callable(target[1]):
            continue
        assert not any(isinstance(a, ast.Starred) for a in args)
        assert all(kw.arg is not None for kw in node.keywords)
        try:
            inspect.signature(target[1]).bind(*[None] * len(args),
                                              **{kw.arg: None for kw in node.keywords})
        except TypeError as exc:
            raise AssertionError(f"workloads.py line {node.lineno}: {target[0]}: {exc}")
        checked.add(target[0])
    assert {"optimize", "zne_pipeline", "gradient_shot", "ybar_hadamard",
            "correlator_profile_shot", "cli.run", "cli.parse_config_text",
            "ZneSchedule", "OptimizeOptions"} <= checked


# Tracer bindings whose call site has moved: their traced figures read 0
# until the tracer stops binding them. A binding that goes stale must be
# added here.
STALE_TRACER_BINDINGS = {
    "isingdefect.qng.exact_ground",
    "isingdefect.model.exact_ground",
    "isingdefect.model.dense_matrix",
    "isingdefect.zne.rotation_apply_raw",
    "isingdefect.ansatz.rotation_apply_raw",
    "isingdefect.measure.apply_controlled",
    "isingdefect.observables.apply_controlled",
    "isingdefect.measure.rotation_apply_raw",
    "isingdefect.zne.sum_apply_raw",
    "isingdefect.zne.pauli_apply_raw",
    "isingdefect.observables.sample_pauli_expectation",
}


# The package's public names, `isingdefect.__all__`, submodules included: a
# name added to the API or dropped from it must be changed here.
PUBLIC_NAMES = {
    "AnsatzSpec", "Circuit", "EstimateRecord", "LoopOperator", "ModelParams",
    "NoiseModel", "OptimizeOptions", "OptimizerState", "PauliString", "RotationGate",
    "ShotPlan", "StateVector", "TraceRow", "WeightedPauliSum", "ZneSchedule", "ansatz",
    "ansatz_circuit", "build_hamiltonian", "circuit_rng", "correlator_profile",
    "correlator_profile_shot", "correlator_zz", "defect_coefficients", "dense_matrix",
    "derivative_state", "energy_scan", "expectation", "extrapolate", "fold_gates",
    "gate_generators", "gradient_exact", "gradient_shot", "ground_energy_gap",
    "init_params", "measure", "metric_exact", "metric_shot", "model", "noiseless_expectation",
    "noisy_expectation", "observables", "optimize", "parameter_count", "paulis", "plus_state",
    "prepare_state", "qng", "qng_step", "sample_pauli_expectation", "statevector",
    "ybar_exact", "ybar_hadamard", "zne", "zne_pipeline",
}


# Every settable value of the package: each defaulted parameter of a public
# function or method, and each field of a public dataclass, reached from
# `isingdefect.__all__`. A setting that only tests set is a constant; a
# setting added later must be added here.
SETTABLE_VALUES = {
    "ansatz.AnsatzSpec.L", "ansatz.AnsatzSpec.N", "ansatz.AnsatzSpec.boundary='open'",
    "ansatz.circuit_pass(batch=None)", "ansatz.init_params(seed=0)",
    "measure.EstimateRecord.circuit_id",
    "measure.EstimateRecord.shots_used", "measure.EstimateRecord.std_error",
    "measure.EstimateRecord.value", "measure.ShotPlan.analytic=False",
    "measure.ShotPlan.seed=0", "measure.ShotPlan.shots=1024",
    "measure.gradient_shot(records=None)", "measure.metric_shot(records=None)",
    "measure.sample_pauli_expectation(circuit_id=None)",
    "model.ModelParams.L", "model.ModelParams.b=0", "model.ModelParams.j=None",
    "model.ModelParams.v=0.0", "model.energy_scan(j=None)",
    "observables.LoopOperator.L",
    "observables.correlator_profile_shot(records=None)",
    "observables.correlator_profile_shot(rs=None)",
    "observables.correlator_profile_shot(runs=1)",
    "observables.ybar_hadamard(circuit_id=None)",
    "paulis.PauliString.x=0", "paulis.PauliString.z=0",
    "qng.OptimizeOptions.eta=0.05", "qng.OptimizeOptions.max_iters=500",
    "qng.OptimizeOptions.seed=0", "qng.OptimizerState.energy=nan",
    "qng.OptimizerState.grad_norm=nan", "qng.OptimizerState.iteration=0",
    "qng.OptimizerState.params",
    "qng.OptimizerState.stop_reason=''", "qng.TraceRow.energy", "qng.TraceRow.grad_norm",
    "qng.TraceRow.iteration", "qng.TraceRow.rel_error", "qng.optimize(options=None)",
    "statevector.RotationGate.angle", "statevector.RotationGate.generator",
    "statevector.StateVector.amplitudes", "statevector.StateVector.n_qubits",
    "zne.Circuit.gates", "zne.Circuit.n_qubits", "zne.NoiseModel.p1=0.0",
    "zne.NoiseModel.p2=0.01", "zne.ZneSchedule.degree=2", "zne.ZneSchedule.factors=()",
    "zne.noisy_expectation(seed=0)", "zne.noisy_expectation(stream=0)",
    "zne.zne_pipeline(seed=0)",
}


def _settable_values() -> set:
    import dataclasses
    import inspect

    import isingdefect

    found = set()

    def visit(name, obj):
        if inspect.isfunction(obj) or inspect.ismethod(obj):  # classmethods bind
            found.update(f"{name}({p.name}={p.default!r})"
                         for p in inspect.signature(obj).parameters.values()
                         if p.default is not p.empty)
        elif inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                found.update(f"{name}.{f.name}" + ("" if f.default is dataclasses.MISSING
                                                   else f"={f.default!r}")
                             for f in dataclasses.fields(obj))
            for attr in vars(obj):
                if not attr.startswith("_"):
                    visit(f"{name}.{attr}", getattr(obj, attr))

    for name in isingdefect.__all__:
        obj = getattr(isingdefect, name)
        if inspect.ismodule(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and getattr(member, "__module__", "") == obj.__name__:
                    visit(f"{name}.{attr}", member)
        else:
            visit(f"{obj.__module__.rsplit('.', 1)[-1]}.{name}", obj)
    return found


def test_public_names_are_pinned():
    import isingdefect

    assert set(isingdefect.__all__) == PUBLIC_NAMES


def test_settable_values_are_pinned():
    assert _settable_values() == SETTABLE_VALUES


def test_stale_tracer_bindings_are_listed():
    # the tracer times layers by rebinding names at their call sites and
    # skips a name that is gone, so a moved call site zeroes a figure silently
    import ast
    import importlib

    source = REPO / "perfbench" / "tracer.py"
    bindings = next(
        ast.literal_eval(node.value) for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "BINDINGS"
    )
    stale = {f"{module}.{attr}" for module, attr in bindings
             if not hasattr(importlib.import_module(module), attr)}
    assert stale == STALE_TRACER_BINDINGS


def test_tracer_sorts_package_rotations_by_kind(monkeypatch):
    # the traced benchmark sorts each rotation by its generator's masks and
    # `e`; a change to PauliString that broke that read would go unnoticed
    # until a `--trace 1` run
    import importlib.util

    from isingdefect.zne import ansatz_circuit
    from isingdefect.paulis import PauliString
    from isingdefect.statevector import RotationGate

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    batch = np.zeros((2, 8), dtype=np.complex128)
    zz, x, z = (ansatz_circuit(AnsatzSpec(L=3, N=1), np.full(8, 0.1)).gates[k] for k in (0, 2, 5))
    assert (zz.generator.ops, x.generator.ops, z.generator.ops) == (
        {0: "Z", 1: "Z"}, {0: "X"}, {0: "Z"})
    y = RotationGate(PauliString.from_ops({1: "Y"}), 0.1)
    xx = RotationGate(PauliString.from_ops({0: "X", 2: "X"}), 0.1)
    kinds = [tracer._rotation_info((batch, gate), None) for gate in (z, zz, x, y, xx)]
    assert kinds == [(tracer.DIAG, 16), (tracer.DIAG, 16), (tracer.XSITE, 16),
                     (tracer.GENERIC, 16), (tracer.GENERIC, 16)]
