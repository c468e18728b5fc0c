"""Spans recorded from outside the program, and the per-layer figures
derived from them.

`from .x import f` copies the name f into the importing module, so a layer
is timed by replacing the name at each call-site binding listed in
BINDINGS with a wrapper that records a span: name, start, end, parent span
and a small info value. Spans stay in memory and are written out when the
worker exits. A span's self time is its duration minus its children's.
"""
from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute): the call sites the layers are timed at.
BINDINGS = (
    ("isingdefect.qng", "rotation_apply_raw"),
    ("isingdefect.qng", "pauli_apply_raw"),
    ("isingdefect.qng", "sum_apply_raw"),
    ("isingdefect.qng", "qng_step"),
    ("isingdefect.qng", "prepare_state"),
    ("isingdefect.qng", "expectation"),
    ("isingdefect.qng", "exact_ground"),
    ("isingdefect.ansatz", "rotation_apply_raw"),
    ("isingdefect.model", "exact_ground"),
    ("isingdefect.model", "dense_matrix"),
    ("scipy.linalg", "eigh"),
    ("isingdefect.zne", "noisy_expectation"),
    ("isingdefect.zne", "rotation_apply_raw"),
    ("isingdefect.zne", "pauli_apply_raw"),
    ("isingdefect.zne", "sum_apply_raw"),
    ("isingdefect.measure", "apply_controlled"),
    ("isingdefect.measure", "rotation_apply_raw"),
    ("isingdefect.measure", "circuit_rng"),
    ("isingdefect.measure", "pauli_expectation"),
    ("isingdefect.observables", "apply_controlled"),
    ("isingdefect.observables", "sample_pauli_expectation"),
    ("isingdefect.observables", "prepare_state"),
    ("isingdefect.cli", "energy_scan"),
)

DIAG, XSITE, GENERIC = 0, 1, 2


def _rotation_info(args, out):
    batch, gate = args[0], args[1]
    g = gate.generator
    if g.x == 0:
        kind = DIAG
    elif g.z == 0 and g.x.bit_count() == 1 and g.e == 0:
        kind = XSITE
    else:
        kind = GENERIC
    return kind, batch.size


def _pauli_info(args, out):
    batch = args[0]
    return batch.size // batch.shape[-1], batch.size


def _step_info(args, out):
    return out.params is args[0].params  # qng_step hands back the old params on rejection


def _matrix_info(args, out):
    return out.nbytes


_INFO = {
    "rotation_apply_raw": _rotation_info,
    "pauli_apply_raw": _pauli_info,
    "qng_step": _step_info,
    "dense_matrix": _matrix_info,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, info]
        self.stack = []
        self.missing = []

    def install(self):
        """Wrap every binding that exists; remember the ones that do not."""
        for module_name, attr in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(fn, name, _INFO.get(attr)))

    def _wrap(self, fn, name, info):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if info is not None:
                span[4] = info(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args):
        return self._wrap(fn, name, None)(*args)

    def write(self, path, op_starts):
        """Spans as CSV rows: op, name, start_ns, end_ns, parent."""
        bounds = list(op_starts) + [len(self.spans)]
        with open(path, "w") as fh:
            fh.write("op,name,start_ns,end_ns,parent\n")
            for op, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                for name, t0, t1, parent, _ in self.spans[lo:hi]:
                    fh.write(f"{op},{name},{t0},{t1},{parent}\n")


# Per-layer metric names with their units, in report order.
LAYER_METRICS = {
    "statevector.rotation.calls": "count",
    "statevector.rotation.diag.s": "s",
    "statevector.rotation.xsite.s": "s",
    "statevector.rotation.generic.s": "s",
    "statevector.rotation.amps": "count",
    "statevector.pauli_apply.calls": "count",
    "statevector.pauli_apply.s": "s",
    "statevector.sum_apply.calls": "count",
    "statevector.sum_apply.s": "s",
    "statevector.apply_controlled.calls": "count",
    "statevector.apply_controlled.s": "s",
    "statevector.bytes_computed": "B",
    "ansatz.prepare_state.calls": "count",
    "ansatz.prepare_state.s": "s",
    "qng.iterations": "count",
    "qng.sweep.s": "s",
    "qng.sweep.amps": "count",
    "qng.hpsi.s": "s",
    "qng.optimize.self_s": "s",
    "qng.step.calls": "count",
    "qng.step.self_s": "s",
    "qng.energy_calls": "count",
    "qng.halvings": "count",
    "qng.rejected_steps": "count",
    "model.oracle.calls": "count",
    "model.oracle.s": "s",
    "model.dense_build.s": "s",
    "model.eigh.s": "s",
    "model.matrix_bytes": "B",
    "measure.circuits": "count",
    "measure.shots": "count",
    "measure.gradient_shot.s": "s",
    "measure.metric_shot.s": "s",
    "measure.controlled.s": "s",
    "measure.gates.s": "s",
    "measure.rng.calls": "count",
    "measure.rng.s": "s",
    "measure.readout.s": "s",
    "measure.sample_pauli.calls": "count",
    "measure.sample_pauli.s": "s",
    "observables.ybar.calls": "count",
    "observables.ybar.s": "s",
    "observables.ybar.controlled.s": "s",
    "observables.correlator.calls": "count",
    "observables.correlator.s": "s",
    "zne.trajectories": "count",
    "zne.gate_rows": "count",
    "zne.noisy.s": "s",
    "zne.gates.s": "s",
    "zne.errors.calls": "count",
    "zne.errors.rows": "count",
    "zne.errors.s": "s",
    "zne.observable.s": "s",
    "zne.noisy.self_s": "s",
    "zne.clean_frac_computed": "ratio",
    "zne.error_rows_frac": "ratio",
    "cli.run.s": "s",
    "cli.self_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
    "baseline.blas1_wall_s": "s",
}

_ROTATION_KIND = {DIAG: "diag", XSITE: "xsite", GENERIC: "generic"}


def layer_figures(spans, offset: int, desc: dict) -> dict:
    """Per-layer figures of one operation from its spans, whose parent
    indices count from `offset`, and the operation's `describe` output."""
    spans = [(name, t0, t1, parent - offset if parent >= 0 else -1, info)
             for name, t0, t1, parent, info in spans]
    child_s = defaultdict(float)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += (t1 - t0) * 1e-9
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    names = [s[0] for s in spans]
    for i, (name, t0, t1, parent, info) in enumerate(spans):
        dur = (t1 - t0) * 1e-9
        self_s = dur - child_s[i]
        module, fn = name.split(".", 1)
        parent_fn = names[parent].split(".", 1)[1] if parent >= 0 else ""
        if fn == "rotation_apply_raw":
            kind, amps = info
            m["statevector.rotation.calls"] += 1
            m[f"statevector.rotation.{_ROTATION_KIND[kind]}.s"] += dur
            m["statevector.rotation.amps"] += amps
            if module == "qng":
                m["qng.sweep.s"] += dur
                m["qng.sweep.amps"] += amps
            elif module == "zne" and parent_fn == "noisy_expectation":
                m["zne.gates.s"] += dur
            elif module == "measure":
                m["measure.gates.s"] += dur
        elif fn == "pauli_apply_raw":
            rows, amps = info
            m["statevector.pauli_apply.calls"] += 1
            m["statevector.pauli_apply.s"] += dur
            if module == "qng":
                m["qng.sweep.s"] += dur
                m["qng.sweep.amps"] += amps
            elif module == "zne":
                m["zne.errors.calls"] += 1
                m["zne.errors.rows"] += rows
                m["zne.errors.s"] += dur
        elif fn == "sum_apply_raw":
            m["statevector.sum_apply.calls"] += 1
            m["statevector.sum_apply.s"] += dur
            if module == "qng":
                m["qng.hpsi.s"] += dur
            elif module == "zne" and parent_fn == "noisy_expectation":
                m["zne.observable.s"] += dur
        elif fn == "apply_controlled":
            m["statevector.apply_controlled.calls"] += 1
            m["statevector.apply_controlled.s"] += dur
            if module == "measure":
                m["measure.controlled.s"] += dur
            else:
                m["observables.ybar.controlled.s"] += dur
        elif fn == "prepare_state":
            m["ansatz.prepare_state.calls"] += 1
            m["ansatz.prepare_state.s"] += dur
            if parent_fn == "qng_step":
                m["qng.energy_calls"] += 1
        elif fn == "optimize":
            m["qng.optimize.self_s"] += self_s
        elif fn == "qng_step":
            m["qng.step.calls"] += 1
            m["qng.step.self_s"] += self_s
            m["qng.rejected_steps"] += bool(info)
        elif fn == "exact_ground":
            m["model.oracle.calls"] += 1
            m["model.oracle.s"] += dur
        elif fn == "dense_matrix":
            m["model.dense_build.s"] += dur
            m["model.matrix_bytes"] = max(m["model.matrix_bytes"], info)
        elif fn == "eigh":
            m["model.eigh.s"] += dur
        elif fn == "gradient_shot":
            m["measure.gradient_shot.s"] += dur
        elif fn == "metric_shot":
            m["measure.metric_shot.s"] += dur
        elif fn == "circuit_rng":
            m["measure.rng.calls"] += 1
            m["measure.rng.s"] += dur
        elif fn == "pauli_expectation":
            m["measure.readout.s"] += dur
        elif fn == "sample_pauli_expectation":
            m["measure.sample_pauli.calls"] += 1
            m["measure.sample_pauli.s"] += dur
        elif fn == "ybar_hadamard":
            m["observables.ybar.calls"] += 1
            m["observables.ybar.s"] += dur
        elif fn == "correlator_profile_shot":
            m["observables.correlator.calls"] += 1
            m["observables.correlator.s"] += dur
        elif fn == "noisy_expectation":
            m["zne.noisy.s"] += dur
            m["zne.noisy.self_s"] += self_s
        elif fn == "cli_run":
            m["cli.run.s"] += dur
            m["cli.self_s"] += self_s
    m["statevector.bytes_computed"] = m["statevector.rotation.amps"] * 16 * 2
    # halvings: energy calls past the first of each step
    m["qng.halvings"] = m["qng.energy_calls"] - m["qng.step.calls"]
    m["qng.iterations"] = desc.get("iterations", 0)
    m["measure.circuits"] = desc.get("circuits", 0)
    m["measure.shots"] = desc.get("shots", 0)
    m["zne.trajectories"] = desc.get("trajectories", 0)
    m["zne.gate_rows"] = desc["work"] if "trajectories" in desc else 0
    m["zne.clean_frac_computed"] = desc.get("clean_frac", 0.0)
    if desc.get("noisy_gate_rows"):
        m["zne.error_rows_frac"] = m["zne.errors.rows"] / desc["noisy_gate_rows"]
    m["cli.files_written"] = desc.get("files_written", 0)
    m["cli.bytes_written"] = desc.get("bytes_written", 0)
    return m


def mean_figures(per_op: list) -> dict:
    return {k: statistics.fmean(op[k] for op in per_op) for k in per_op[0]} if per_op else {}
