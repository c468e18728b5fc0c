"""One worker process of the benchmark.

Imports the package, makes the inputs of its first operation, then runs
operations start, start+1, ... until it has run --max-ops of them or the
monotonic clock passes --deadline (always at least one). Each operation
starts with every lru_cache in the package cleared, so each pays the
ground-state oracle and the kernel tables as a fresh CLI process would.
Prints one JSON object per line on stdout: first {"ready": ...}, then one
per operation. Started by run.py, which sets PYTHONPATH and the BLAS thread
count.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "isingdefect" or name.startswith("isingdefect."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _blas_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--max-ops", type=int, default=1 << 30)
    ap.add_argument("--deadline", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args()

    import isingdefect

    if Path(isingdefect.__file__).resolve().parent.parent != Path(args.src).resolve():
        print(f"isingdefect imported from {isingdefect.__file__}, not {args.src}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    from tracer import Tracer, layer_figures

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        call = tracer.call
    else:
        def call(name, fn, *fn_args):
            return fn(*fn_args)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = args.start
    inp = workloads.make_input(args.workload, args.seed, index)
    ready = time.monotonic()
    facts = {"python": sys.version.split()[0], "numpy": np.__version__,
             "scipy": scipy.__version__, **_blas_facts(),
             "missing_bindings": tracer.missing if tracer else []}
    _emit({"ready": ready, "facts": facts})

    op_starts = []
    done = 0
    while True:
        _clear_caches()
        lo = len(tracer.spans) if tracer else 0
        op_starts.append(lo)
        row = {"index": index, "trace": args.trace}
        t0 = time.perf_counter()
        try:
            out = workloads.run_op(args.workload, inp, call, out_dir)
        except Exception:
            row["wall_s"] = time.perf_counter() - t0
            row["failures"] = [traceback.format_exc(limit=3)]
        else:
            row["wall_s"] = time.perf_counter() - t0
            row["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            hi = len(tracer.spans) if tracer else 0
            desc = workloads.describe(args.workload, out)
            row["work"] = desc["work"]
            row["work_s"] = desc.get("work_s", row["wall_s"])
            row["digest"] = desc["digest"]
            row["pool"] = desc.get("pool")
            row["failures"] = workloads.check(args.workload, inp, out)
            if tracer:
                del tracer.spans[hi:]  # spans of the checks are not the operation's
                row["layers"] = layer_figures(tracer.spans[lo:hi], lo, desc)
        _emit(row)
        done += 1
        index += 1
        if done >= args.max_ops or time.monotonic() >= args.deadline:
            break
        inp = workloads.make_input(args.workload, args.seed, index)
    if tracer and args.spans:
        tracer.write(args.spans, op_starts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
