"""Experiment driver: config files in, run directories out.

A config is flat `key = value` text ('#' starts a comment). Recognized keys:

    kind          optimize | correlator | ybar | energy-scan | zne
    L             chain length, or comma list to sweep (e.g. 8,10,12)
    b             boundary coupling, 0 (open) or 1 (periodic)
    v             impurity strength, or comma list (inf allowed)
    j             impurity site, 1-based; default L/2
    N             ansatz layers; default L/2
    eta           learning rate (default 0.05)
    max_iters     optimizer iteration cap (default 500)
    runs, shots   measurement repetitions and shots per run; defaults are
                  10 x 8192 for correlators and 5 x 1024 otherwise
    analytic      true for infinite-shot (exact) measurement
    seed          base RNG seed (default 0)
    p2, p1        two- and one-qubit error rates (zne; defaults 0.01, 0)
    factors       noise factors (zne; default 1.0,1.2,...,3.0)
    degree        extrapolation polynomial degree (zne; default 2)
    trajectories  Monte Carlo trajectories per factor (zne; default 10000)

Each run writes its data files plus a record.json manifest under the output
directory. Ground-state circuits are always optimized classically; shots and
noise enter only in the measurement stage that follows.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import astuple, dataclass, fields, replace
from itertools import chain, product
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import AnsatzSpec, parameter_count, prepare_state
from .measure import ShotPlan, _sample_pm1
from .model import ModelParams, build_hamiltonian, energy_scan, ground_energy_gap
from .observables import correlator_profile_shot, ybar_exact, ybar_shots
from .paulis import DENSE_LIMIT, dense_matrix
from .qng import OptimizeOptions, optimize, optimize_bytes
from .statevector import pauli_expectation
from .zne import (NoiseModel, ZneSchedule, ansatz_circuit, fold_schedule, trajectory_bytes,
                  zne_pipeline)

KINDS = ("optimize", "correlator", "ybar", "energy-scan", "zne")
STATEVECTOR_LIMIT = 14  # circuit kinds hold 2^L amplitudes per derivative state
# energy-scan reduces one real 2L x 2L matrix per parity sector to tridiagonal
# form, for its levels and parity at once: O(L^3) for a ring
SCAN_LIMIT = 1000


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    L: tuple = ()
    b: int = ModelParams.b
    v: tuple = (ModelParams.v,)
    j: int | None = None
    N: int | None = None
    eta: float = OptimizeOptions.eta
    max_iters: int = OptimizeOptions.max_iters
    runs: int | None = None
    shots: int | None = None
    analytic: bool = ShotPlan.analytic
    seed: int = OptimizeOptions.seed
    p2: float = NoiseModel.p2
    p1: float = NoiseModel.p1
    factors: tuple | None = None
    degree: int = ZneSchedule.degree
    trajectories: int = 10_000

    def default_runs(self) -> int:
        if self.runs is not None:
            return self.runs
        return 10 if self.kind == "correlator" else 5

    def default_shots(self) -> int:
        if self.shots is not None:
            return self.shots
        return 8192 if self.kind == "correlator" else ShotPlan.shots


_BOOLS = {"true": True, "false": False, "1": True, "0": False,
          "yes": True, "no": False}


def _parse_value(key: str, text: str):
    if key in ("kind",):
        return text
    if key == "L":
        return tuple(int(tok) for tok in text.split(","))
    if key == "v":
        return tuple(float(tok) for tok in text.split(","))
    if key == "factors":
        return tuple(float(tok) for tok in text.split(","))
    if key == "analytic":
        try:
            return _BOOLS[text.lower()]
        except KeyError:
            raise ValueError(f"analytic must be true or false, got {text!r}")
    if key == "eta" or key == "p2" or key == "p1":
        return float(text)
    return int(text)


def parse_config_text(text: str) -> ExperimentConfig:
    known = {f.name for f in fields(ExperimentConfig)}
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            raw[key] = _parse_value(key, value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}")
    if "kind" not in raw:
        raise ValueError("missing required key 'kind'")
    if "L" not in raw:
        raise ValueError("missing required key 'L'")
    return ExperimentConfig(**raw)


def load_config(path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


def config_canonical(config: ExperimentConfig) -> str:
    """Stable one-key-per-line rendering, input to the config hash."""
    lines = []
    for f in sorted(fields(ExperimentConfig), key=lambda f: f.name):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            rendered = ",".join(repr(x) for x in value)
        else:
            rendered = repr(value)
        lines.append(f"{f.name}={rendered}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(config_canonical(config).encode()).hexdigest()


def validate(config: ExperimentConfig) -> list:
    """All problems with the config, as human-readable strings. The library
    types check their own fields; only the CLI's limits are checked here."""
    if config.kind not in KINDS:
        return [f"kind must be one of {', '.join(KINDS)}; got {config.kind!r}"]
    diags = []

    def check(prefix, build, *args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            diags.append(f"{prefix}{exc}")

    if not config.L:
        diags.append("L must list at least one chain length")
    # every L names output files, and so does every v of a circuit kind
    if len(set(config.L)) < len(config.L):
        diags.append("L lists a chain length more than once")
    circuit_kind = config.kind != "energy-scan"
    if circuit_kind:
        diags += _vtag_collisions(config.v)
    schedule = None
    if config.kind == "zne":
        if config.trajectories < 1:
            diags.append("trajectories must be positive")
        check("", NoiseModel, p2=config.p2, p1=config.p1)
        schedule = check("", ZneSchedule, factors=config.factors or (), degree=config.degree)
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    for L in config.L:
        if circuit_kind and L > STATEVECTOR_LIMIT:
            diags.append(f"L={L}: statevector range exceeded (circuit kinds "
                         f"need L <= {STATEVECTOR_LIMIT})")
        if not circuit_kind and L > SCAN_LIMIT:
            diags.append(f"L={L}: energy-scan needs L <= {SCAN_LIMIT}")
        if circuit_kind and config.N is None and L % 2 != 0:
            diags.append(f"L={L} is odd; N defaults to L/2, so set N explicitly")
        if circuit_kind:
            spec = check(f"L={L}: ", AnsatzSpec, L, L // 2 if config.N is None else config.N,
                         "periodic" if config.b == 1 else "open")
            # the fit needs enough distinct folded factors, and the most
            # folded circuit's trajectories need the most memory
            fold = spec and schedule and check(
                f"L={L}: ", fold_schedule,
                ansatz_circuit(spec, np.zeros(parameter_count(spec))), schedule)
            if spec and L <= STATEVECTOR_LIMIT:
                P = parameter_count(spec)
                need = optimize_bytes(spec)
                what = (f"optimize needs {need / 2**30:.3g} GiB for {P + 1} states "
                        f"and a {P} x {P} metric")
                if fold and trajectory_bytes(fold[0][-1], config.trajectories) > need:
                    need = trajectory_bytes(fold[0][-1], config.trajectories)
                    what = f"zne needs {need / 2**30:.3g} GiB for its trajectories"
                if need > memory:
                    diags.append(f"L={L}: {what}; physical memory is {memory / 2**30:.3g} GiB")
        for v in config.v:
            check(f"L={L}, v={v:g}: ", ModelParams, L=L, b=config.b, v=v, j=config.j)
    check("", OptimizeOptions, eta=config.eta, max_iters=config.max_iters)
    if config.default_runs() < 1:
        diags.append("runs must be positive")
    check("", ShotPlan, shots=config.default_shots(), seed=config.seed)
    return diags


@dataclass
class RunRecord:
    kind: str
    config_hash: str
    config: str
    outputs: list
    results: dict
    wall_time_s: float
    versions: dict

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2, sort_keys=True)


def _vtag(v: float) -> str:
    return f"{v:g}".replace(".", "p").replace("-", "m")


def _vtag_collisions(vs) -> list:
    """One diagnostic per v whose file tag an earlier v already has."""
    tags, diags = {}, []
    for v in vs:
        tag = _vtag(v)
        if tag in tags:
            diags.append(f"v={tags[tag]!r} and v={v!r} share the file tag v{tag}")
        tags.setdefault(tag, v)
    return diags


def _mean_se(per_run):
    """Mean of the per-run values and its standard error (0 for one run)."""
    arr = np.array(per_run)
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return float(arr.mean()), se


def _measured_energy(H, state, plan_base: ShotPlan, runs: int, tag: str):
    """Per-term sampling of <H>, repeated over runs; mean and spread. Each
    term's exact mean is read once and every (run, term) circuit is drawn
    in one batch."""
    terms = list(H.terms())
    means = [pauli_expectation(state, term) for _, term in terms]
    ids = [f"energy:{tag}:run{run}:t{k}" for run in range(runs) for k in range(len(terms))]
    values = _sample_pm1(np.tile(means, runs), plan_base, ids)
    return _mean_se([sum(c.real * value for (c, _), value in zip(terms, row))
                     for row in values.reshape(runs, len(terms))])


def _csv(header: str, rows) -> str:
    """The one CSV format: the header, then a line per row with ints as they
    are and floats at 17 significant digits, which read back bit for bit."""
    lines = [header] + [",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row)
                        for row in rows]
    return "\n".join(lines) + "\n"


def _write_file(path: Path, data):
    """Write text, or an array as .npy, to `path`, overwriting in place: ext4
    flushes a file truncated to zero and rewritten when it is closed
    (auto_da_alloc), so a rerun into the same directory would wait on the
    disk."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        if isinstance(data, str):
            fh.write(data.encode())
        else:
            np.save(fh, data)
        fh.truncate()


def _circuit_instance(config, idx, L, v, dump_hamiltonian, dump_state):
    """One (L, v) instance of a circuit kind: optimize with seed + idx,
    prepare psi and build H once, then measure what the kind asks for.
    Returns (files, fields): the (name, text or array) pairs in write order
    and the instance's record entry. Writes nothing."""
    kind = config.kind
    runs, shots = config.default_runs(), config.default_shots()
    seed = config.seed + idx
    mp = ModelParams(L=L, b=config.b, v=v, j=config.j)
    spec = AnsatzSpec(L=L, N=config.N or L // 2, boundary=mp.boundary)
    state, trace = optimize(spec, mp, OptimizeOptions(
        eta=config.eta, max_iters=config.max_iters, seed=seed))
    psi = prepare_state(spec, state.params)
    H = build_hamiltonian(mp)
    plan = ShotPlan(shots=shots, seed=seed, analytic=config.analytic)
    tag = f"L{L}_v{_vtag(v)}"
    files, inst = [], {"L": L, "v": v, "converged": state.converged}
    if kind == "optimize":
        files.append((f"trace_{tag}.csv", _csv("iter,energy,grad_norm,rel_error",
                                               map(astuple, trace))))
        reference = ground_energy_gap(mp)[0]
        measured, se = _measured_energy(H, psi, plan, runs, tag)
        inst.update(b=config.b, energy=state.energy, exact_energy=reference,
                    rel_error=abs(state.energy - reference) / abs(reference),
                    iterations=state.iteration, stop_reason=state.stop_reason,
                    measured_energy=measured, measured_std_error=se)
    elif kind == "correlator":
        rows = correlator_profile_shot(psi, plan, runs=runs)
        files.append((f"correlator_{tag}.csv", _csv("r,value,std_error", rows)))
        inst.update(j=mp.j, profile=[list(row) for row in rows])
    elif kind == "ybar":
        estimate, se = _mean_se([rec.value for rec in ybar_shots(
            psi, plan, [f"ybar:L{L}:v{_vtag(v)}:run{run}" for run in range(runs)])])
        inst.update(estimate=estimate, std_error=se, exact=ybar_exact(psi))
    else:
        report = zne_pipeline(
            ansatz_circuit(spec, state.params), H,
            NoiseModel(p2=config.p2, p1=config.p1),
            ZneSchedule(factors=config.factors or (), degree=config.degree),
            config.trajectories, seed=seed)
        files.append((f"zne_{tag}.json", json.dumps(report, indent=2, sort_keys=True) + "\n"))
        inst.update(unmitigated=report["estimates"][0],
                    extrapolated=report["extrapolated"],
                    extrapolated_std_error=report["extrapolated_std_error"],
                    noiseless_reference=report["noiseless_reference"],
                    exact_energy=ground_energy_gap(mp)[0])
    if kind != "zne":
        inst.update(runs=runs, shots=shots)
    if dump_hamiltonian:
        files.append((f"hamiltonian_{tag}.npy", dense_matrix(H)))
    if dump_state:
        files.append((f"state_{tag}.npy", psi.amplitudes))
    return files, inst


def _scan_instance(config, L, dump_hamiltonian):
    """One L of an energy scan: (files, fields) as for a circuit instance.
    Each v's dump is built only as it is written, one dense matrix at a time."""
    rows = energy_scan(L, config.b, config.v, config.j)
    dumps = ((f"hamiltonian_L{L}_v{_vtag(v)}.npy",
              dense_matrix(build_hamiltonian(ModelParams(L=L, b=config.b, v=v, j=config.j))))
             for v in (config.v if dump_hamiltonian else ()))
    table = (f"scan_L{L}.csv", _csv("v,L_over_lB,ground_energy,gap", rows))
    return chain([table], dumps), {"L": L, "points": len(rows)}


def run(config: ExperimentConfig, out_dir,
        dump_hamiltonian: bool = False, dump_state: bool = False) -> RunRecord:
    """Execute one experiment; write data files and record.json."""
    diags = validate(config)
    if dump_hamiltonian and config.kind == "energy-scan":
        diags += _vtag_collisions(config.v)  # the only files a scan names by v
    if diags:
        raise ValueError("invalid config: " + "; ".join(diags))
    if dump_state and config.kind == "energy-scan":
        raise ValueError("dump_state is not available for energy-scan: "
                         "no state is prepared")
    if dump_hamiltonian and max(config.L) > DENSE_LIMIT:
        raise ValueError(f"dump_hamiltonian writes a dense 2^L x 2^L matrix "
                         f"and needs L <= {DENSE_LIMIT}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    import scipy

    started = time.monotonic()
    if config.kind == "energy-scan":
        stream = (_scan_instance(config, L, dump_hamiltonian) for L in config.L)
    else:
        stream = (_circuit_instance(config, idx, L, v, dump_hamiltonian, dump_state)
                  for idx, (L, v) in enumerate(product(config.L, config.v)))
    outputs, instances = [], []
    for files, inst in stream:  # each instance's files are written before the next starts
        for name, data in files:
            _write_file(out_dir / name, data)
            outputs.append(name)
            del data  # a dump is up to 268 MB at L = 12: hold one at a time
        del files
        instances.append(inst)
    if config.kind == "ybar":
        keys = ("L", "v", "estimate", "std_error", "exact")
        rows = [[inst[k] for k in keys] for inst in instances]
        _write_file(out_dir / "ybar.csv", _csv(",".join(keys), rows))
        outputs.append("ybar.csv")
    record = RunRecord(
        kind=config.kind,
        config_hash=config_hash(config),
        config=config_canonical(config),
        outputs=outputs,
        results={"instances": instances},
        wall_time_s=time.monotonic() - started,
        versions={
            "python": ".".join(str(x) for x in sys.version_info[:3]),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "isingdefect": __version__,
        },
    )
    _write_file(out_dir / "record.json", record.to_json() + "\n")
    return record


def _summarize(record: RunRecord) -> str:
    lines = [f"kind: {record.kind}  config: {record.config_hash[:12]}"]
    for inst in record.results.get("instances", []):
        parts = []
        for key in ("L", "v", "energy", "exact_energy", "rel_error",
                    "measured_energy", "estimate", "exact", "extrapolated",
                    "noiseless_reference", "points", "converged"):
            if key in inst:
                value = inst[key]
                if isinstance(value, float):
                    parts.append(f"{key}={value:.6g}")
                else:
                    parts.append(f"{key}={value}")
        lines.append("  " + "  ".join(parts))
    lines.append(f"outputs: {', '.join(record.outputs)}")
    return "\n".join(lines)


def _all_converged(record: RunRecord) -> bool:
    return all(inst.get("converged", True)
               for inst in record.results.get("instances", []))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="isingdefect",
        description="Ising-impurity experiment driver (see module docstring "
                    "for the config schema)")
    sub = parser.add_subparsers(dest="command", required=True)
    p_val = sub.add_parser("validate", help="check a config, print diagnostics")
    p_val.add_argument("config")
    p_run = sub.add_parser("run", help="execute a config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--shots", type=int, default=None)
    p_run.add_argument("--analytic", action="store_true")
    p_run.add_argument("--dump-hamiltonian", action="store_true")
    p_run.add_argument("--dump-state", action="store_true")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        diags = validate(config)
        for d in diags:
            print(d)
        print("ok" if not diags else f"{len(diags)} problem(s) found")
        return 0 if not diags else 1

    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.shots is not None:
        config = replace(config, shots=args.shots)
    if args.analytic:
        config = replace(config, analytic=True)
    out_dir = args.out_dir or f"runs/{config.kind}-{config_hash(config)[:12]}"
    try:
        record = run(config, out_dir,
                     dump_hamiltonian=args.dump_hamiltonian,
                     dump_state=args.dump_state)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    print(_summarize(record))
    print(f"written to {out_dir}")
    return 0 if _all_converged(record) else 2


if __name__ == "__main__":
    sys.exit(main())
