"""Spans around the public functions of each qsot layer, recorded from outside.

``install`` wraps every function named in ``LAYERS`` at every qsot module that
binds it (``two_time_ev`` is bound in ``twotime``, ``sot``, ``verify`` and
``cli``), so a call is recorded whichever module it is made through.  A class
is traced through its ``__init__``.  Spans stay in memory as parallel lists
(name, start, end, parent) and are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

LAYERS = {
    "linalg": ("hermitian_eigendecomposition", "tensor", "partial_trace"),
    "channels": ("apply", "QuantumChannel"),
    "observables": ("light_touch_spanning_set", "hermitian_basis", "pauli_basis", "sic_povm"),
    "twotime": ("two_time_ev", "joint_distribution", "representability_residual",
                "sot_trace_value"),
    "sot": ("canonical_sot", "reconstruct_unique", "pdm_from_correlations"),
    "sampler": ("sample_sequential", "estimate_ev", "estimate_pdm"),
    "verify": ("run_suites",),
    "io": ("load_document", "process_from_payload", "sot_doc", "dump_document"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in LAYERS.items() for f in fns)
COLD_METRIC = "sot.reconstruct_unique.cold_ms"
STARTUP_METRIC = "cli.startup_ms"


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = "count/op"
        out[f"{name}.total_ms"] = "ms/op"
        out[f"{name}.self_ms"] = "ms/op"
    out[COLD_METRIC] = "ms"
    out[STARTUP_METRIC] = "ms"
    return out


class Tracer:
    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter_ns()
                self._stack.pop()
        return traced

    def __len__(self):
        return len(self.starts)

    def spans(self, first=0):
        return list(zip(self.names[first:], self.starts[first:], self.ends[first:],
                        [p - first if p >= first else -1 for p in self.parents[first:]]))


def install(tracer):
    """Wrap each traced function at every module of the package that binds it."""
    importlib.import_module("qsot.cli")  # imports io and verify too
    modules = [m for n, m in list(sys.modules.items()) if n == "qsot" or n.startswith("qsot.")]
    for layer, fns in LAYERS.items():
        home = sys.modules[f"qsot.{layer}"]
        for fn in fns:
            original = getattr(home, fn)
            name = f"{layer}.{fn}"
            if isinstance(original, type):
                original.__init__ = tracer.wrap(name, original.__init__)
                continue
            traced = tracer.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)


def summarize(spans, out):
    """Add each span to ``out[name] = [calls, total ns, self ns]``.

    Calls are synchronous on one thread, so a span's children run one after
    another inside it and the time they cover is the sum of their durations.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (name, start, end, _) in enumerate(spans):
        acc = out.setdefault(name, [0, 0, 0])
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - child_ns[i]


def layer_metrics(span_lists, ops, cold_ms=0.0, startup_ms=0.0):
    """Per-operation calls and times for every traced function.

    ``span_lists`` holds one span list per traced process.
    """
    sums = {}
    for spans in span_lists:
        summarize(spans, sums)
    values = {}
    for name in SPAN_NAMES:
        calls, total, self_ns = sums.get(name, (0, 0, 0))
        values[f"{name}.calls"] = calls / ops
        values[f"{name}.total_ms"] = total / 1e6 / ops
        values[f"{name}.self_ms"] = self_ns / 1e6 / ops
    values[COLD_METRIC] = cold_ms
    values[STARTUP_METRIC] = startup_ms
    return values


def write_spans(path, span_lists):
    """Gzipped JSON: one column per field for each traced process."""
    names = sorted({s[0] for spans in span_lists for s in spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {"names": names, "processes": [
        {
            "name": [index[s[0]] for s in spans],
            "start_ns": [s[1] for s in spans],
            "end_ns": [s[2] for s in spans],
            "parent": [s[3] for s in spans],  # index into the same process, or -1
        }
        for spans in span_lists
    ]}
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)


def read_spans(path):
    with gzip.open(path, "rt") as fh:
        doc = json.load(fh)
    names = doc["names"]
    return [[(names[n], s, e, p) for n, s, e, p in
             zip(cols["name"], cols["start_ns"], cols["end_ns"], cols["parent"])]
            for cols in doc["processes"]]
