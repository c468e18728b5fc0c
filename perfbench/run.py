"""Benchmark of the isingdefect toolkit.

    python3 perfbench/run.py --workload {ground,zne,scan} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree: the package is imported from ./src and
nothing is installed. Operations of one workload run one after another
(closed loop, one client) in worker processes started one at a time, so
each worker's peak RSS belongs to that workload alone and several set-ups
are timed per run. BLAS threads are pinned to the CPUs this process may
use. Every operation's output is checked outside the timed region; see
workloads.py for the checks and README.md for the workloads and metrics.

--trace 0 prints the end-to-end metrics: the medians of operation time,
set-up time, peak RSS per worker and per-operation work per second. A last
worker re-runs operation 0 and must give bit-identical output.
--trace 1 runs every batch of inputs three times, untraced, traced and with
one BLAS thread, and prints the per-layer figures of the traced operations
(mean per operation), the tracing overhead and the one-thread baseline.
Traced and untraced outputs must be bit-identical.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Spans and per-operation rows are written under
perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from tracer import LAYER_METRICS, mean_figures  # noqa: E402

WORKLOADS = ("ground", "zne", "scan")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class Run:
    def __init__(self, workload, seed, src, out):
        self.workload, self.seed, self.src, self.out = workload, seed, src, out
        self.t_start = time.monotonic()
        self.workers = []  # one dict per worker: setup_s, rss_mb, ops, role
        self.crashes = []
        self.facts = {}
        self.nproc = len(os.sched_getaffinity(0))

    def spawn(self, role, start, max_ops=1 << 30, deadline=math.inf, threads=None):
        """Start a worker, wait for it, and return its operation rows."""
        n = len(self.workers)
        threads = str(threads or self.nproc)
        env = dict(os.environ, PYTHONPATH=str(self.src), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--start", str(start), "--max-ops", str(max_ops),
               "--deadline", repr(min(deadline, time.monotonic() + 1e6)),
               "--trace", "1" if role == "traced" else "0", "--src", str(self.src),
               "--out-dir", str(self.out / f"w{n}"), "--spans", str(self.out / f"spans{n}.csv")]
        timeout = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.t_start))
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
        killed = False
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, _ = proc.communicate()
            killed = True
            self.crashes.append(f"worker {n} ({role}) killed after {timeout:.0f} s")
        finally:
            if proc.poll() is None:  # interrupted: leave no worker behind
                proc.kill()
                proc.wait()
        rows = []
        for line in stdout.splitlines():
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(row, dict):
                rows.append(row)
        ready = [r for r in rows if "ready" in r]
        if not ready:
            raise SystemExit(f"worker {n} ({role}) did not start (exit {proc.returncode})")
        ops = [r for r in rows if "index" in r]
        if proc.returncode and not killed:
            self.crashes.append(f"worker {n} ({role}) exited with {proc.returncode}")
        self.facts = ready[0]["facts"]
        self.workers.append({"role": role, "setup_s": ready[0]["ready"] - spawned,
                             "rss_mb": max((r.get("rss_mb", 0.0) for r in ops), default=0.0),
                             "ops": ops})
        return ops

    def time_left(self, seconds):
        return time.monotonic() < self.t_start + seconds

    def ops(self, role):
        return [op for w in self.workers if w["role"] == role for op in w["ops"]]


def _machine(run: Run) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {"nproc": run.nproc, "cpu_model": model, "l3": l3, **run.facts}


def _measure(run: Run, seconds: float) -> dict:
    slice_s = seconds / 4
    index = 0
    while not run.workers or run.time_left(seconds):
        ops = run.spawn("untraced", index, deadline=min(time.monotonic() + slice_s,
                                                        run.t_start + seconds))
        index += max(1, len(ops))
    run.spawn("repeat", 0, max_ops=1)
    ops = [op for op in run.ops("untraced") + run.ops("repeat") if "work" in op]
    if not ops:
        raise SystemExit("no operation completed")
    return {
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "setup_s": statistics.median(w["setup_s"] for w in run.workers),
        "peak_rss_mb": statistics.median(w["rss_mb"] for w in run.workers),
        "work_per_s": statistics.median(op["work"] / op["work_s"] for op in ops),
    }


def _trace(run: Run, seconds: float) -> dict:
    slice_s = seconds / 6
    index = 0
    while not run.workers or run.time_left(seconds):
        n = len(run.spawn("untraced", index, deadline=time.monotonic() + slice_s))
        run.spawn("traced", index, max_ops=n)
        run.spawn("blas1", index, max_ops=n, threads=1)
        index += max(1, n)
    traced = [op["layers"] for op in run.ops("traced") if "layers" in op]
    if not traced:
        raise SystemExit("no traced operation completed")
    figures = mean_figures(traced)
    walls = {role: statistics.median(op["wall_s"] for op in run.ops(role) if "work" in op)
             for role in ("untraced", "traced", "blas1")}
    figures["trace.overhead_s"] = walls["traced"] - walls["untraced"]
    figures["baseline.blas1_wall_s"] = walls["blas1"]
    return figures


def _zne_bias_check(pools: list) -> list:
    """Criterion 7's rule, the extrapolated bias at most half the
    unmitigated one, applied to the means over the run's distinct zne
    operations (one circuit, independent trajectory seeds)."""
    if not pools:
        return []
    clean = pools[0]["clean"]
    unmitigated = abs(statistics.fmean(p["unmitigated"] for p in pools) - clean)
    mitigated = abs(statistics.fmean(p["extrapolated"] for p in pools) - clean)
    if mitigated > 0.5 * unmitigated:
        return [f"zne bias {unmitigated:.4f} -> {mitigated:.4f} over {len(pools)} "
                "operations: less than a 2x reduction"]
    return []


def _failures(run: Run) -> tuple[int, int, list]:
    """(attempted, failed, messages) over every operation of the run."""
    messages = list(run.crashes)
    all_ops = [op for w in run.workers for op in w["ops"]]
    failed = len(run.crashes)
    for op in all_ops:
        if op["failures"]:
            failed += 1
            messages += [f"op {op['index']}: {f}" for f in op["failures"][:3]]
    # repetitions: every input run twice in this run must give the same bytes
    first = {}
    for op in run.ops("untraced"):
        first.setdefault(op["index"], op.get("digest"))
    for op in run.ops("repeat") + run.ops("traced"):
        if op.get("digest") is None or op["digest"] != first.get(op["index"]):
            failed += 1
            messages.append(f"op {op['index']}: repetition differs from the first run")
    pools = [op["pool"] for op in run.ops("untraced") if op.get("pool")]
    pooled = _zne_bias_check(pools)
    if pooled:
        failed += len(pools)
        messages += pooled
    return len(all_ops) + len(run.crashes), failed, messages


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the workers' cleanup

    src = Path.cwd() / "src"
    if not (src / "isingdefect" / "__init__.py").is_file():
        print(f"no isingdefect package under {src}; run from the root of the source tree",
              file=sys.stderr)
        return 2
    out = BENCH / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    run = Run(args.workload, args.seed, src, out)
    if args.trace:
        values, units = _trace(run, args.seconds), LAYER_METRICS
    else:
        values, units = _measure(run, args.seconds), END_TO_END
    attempted, failed, messages = _failures(run)
    for message in messages:
        print(message, file=sys.stderr)

    machine = _machine(run)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "values": values,
              "workers": [{k: w[k] for k in ("role", "setup_s", "rss_mb")} for w in run.workers],
              "ops": [op for w in run.workers for op in w["ops"]], "failures": messages}
    (out / "run.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"machine": machine}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
