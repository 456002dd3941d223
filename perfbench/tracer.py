"""Spans and kernel counters around the calls into each quatspin layer.

Run as a script, this executes one quatspin CLI command under the tracer and
writes the trace as JSON when the command ends:

    PYTHONPATH=src python3 -X importtime perfbench/tracer.py TRACE.json verify --m 1

The program is measured from outside and not modified.  `install` replaces,
in every quatspin module namespace that holds them, the public functions
named in LAYER_OF_SPAN with wrappers that record a span (name, start, end,
parent), and wraps the DenseMatrix products and element-wise operations with
counters.  Kernel operations are too many to keep one span each (an exact
so(3) search issues hundreds of thousands), so each span instead adds up the
time of the kernel operations issued directly inside it; a span's self time
is its duration minus its child spans and that kernel time.  Spans are kept
in memory and written once, at exit.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import resource
import sys
import threading
from time import perf_counter

# Public functions wrapped with spans ("module.attribute"), and the
# per-layer metric stem their self time goes to.  A class gets its __init__
# wrapped.  cli.main is only the root of the span tree.  The small helpers
# (j_operator, q_plus, ...) are left out on purpose: their time stays in the
# caller's self time.
LAYER_OF_SPAN = {
    "exact.lagrange_eigenprojectors": "exact.eigenprojector",
    "exact.column_space_basis": "exact.column_basis",
    "clifford.build_clifford_model": "clifford.build_model",
    "clifford.vector_action": "clifford.vector_action",
    "quaternionic.build_standard_triple": "quaternionic.kaehler_ops",
    "quaternionic.kaehler_form": "quaternionic.kaehler_ops",
    "quaternionic.kraines_form": "quaternionic.kaehler_ops",
    "quaternionic.build_kaehler_operators": "quaternionic.kaehler_ops",
    "quaternionic.build_adapted_basis": "quaternionic.kaehler_ops",
    "quaternionic.structure_report": "quaternionic.structure_report",
    "decomposition.decompose": "decomposition.decompose",
    "decomposition.decomposition_report": "decomposition.report",
    "projectors.ProjectorCalculus": "projectors.calculus",
    "projectors.verify_lemma_identities": "projectors.lemma_suite",
    "projectors.constants_report": "projectors.constants",
    "projectors.compute_A": "projectors.constants",
    "so3.irrep_report": "so3.irrep_report",
    "so3.find_rotation_with_top_component": "so3.search",
    "cli._render": "cli.render",
    "cli.main": None,
}
COUNTED_LAYERS = ("exact.eigenprojector", "clifford.vector_action")
PEAK_SPANS = {"decomposition.decompose": "decomposition.decompose_peak_mb",
              "projectors.ProjectorCalculus": "projectors.calculus_peak_mb"}
KERNEL_CLASSES = ("int_matmul", "object_matmul", "float_matmul", "elementwise")

# The exact kernel runs a product in int64 unless an operand already holds
# object-dtype numerators or this bound on an entry of the result overflows.
_INT64_LIMIT = 2 ** 63


def _matmul_class(a, b):
    """Which kernel path a DenseMatrix product takes, from its operands."""
    if a.kind == "float":
        return "float_matmul"
    re_a, re_b = getattr(a, "_re", None), getattr(b, "_re", None)
    if getattr(re_a, "dtype", None) == object or getattr(re_b, "dtype", None) == object:
        return "object_matmul"
    amax_a, amax_b = getattr(a, "_amax", 0) or 0, getattr(b, "_amax", 0) or 0
    if 2 * max(a.cols, 1) * amax_a * amax_b >= _INT64_LIMIT:
        return "object_matmul"
    return "int_matmul"


def _rss_bytes():
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class RssPeak:
    """Highest resident set size seen while open, sampled every 2 ms."""

    def __init__(self, interval=0.002):
        self.peak = _rss_bytes()
        self._interval = interval
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        while not self._done.wait(self._interval):
            self.peak = max(self.peak, _rss_bytes())

    def close(self):
        self._done.set()
        self._thread.join()
        return max(self.peak, _rss_bytes()) / 1e6


class Tracer:
    """In-memory spans plus per-class kernel counters."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans = []     # [name, parent index, start, end, kernel_s, peak_mb]
        self.stack = []
        self.kernel = {cls: [0, 0.0] for cls in KERNEL_CLASSES}
        self.int_bytes = 0
        self.max_num = 0
        self.max_den = 1
        self.searches = []

    def span(self, name, fn, on_return=None):
        def traced(*args, **kwargs):
            rec = [name, self.stack[-1] if self.stack else None,
                   perf_counter() - self.origin, None, 0.0, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            peak = RssPeak() if name in PEAK_SPANS else None
            try:
                out = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                rec[3] = perf_counter() - self.origin
                if peak is not None:
                    rec[5] = peak.close()
            if on_return is not None:
                on_return(args, out)
            return out
        return traced

    def kernel_op(self, fn, classify):
        def counted(a, b):
            cls = classify(a, b)
            t0 = perf_counter()
            out = fn(a, b)
            dt = perf_counter() - t0
            entry = self.kernel[cls]
            entry[0] += 1
            entry[1] += dt
            if self.stack:
                self.spans[self.stack[-1]][4] += dt
            if cls == "int_matmul":
                # four int64 products per complex product: read both
                # operands, write the result, 8 bytes an entry
                self.int_bytes += 32 * (a.rows * a.cols + b.rows * b.cols
                                        + a.rows * b.cols)
            amax = getattr(out, "_amax", None)
            if isinstance(amax, int):
                self.max_num = max(self.max_num, amax)
                self.max_den = max(self.max_den, out._den)
            return out
        return counted

    def record_search(self, args, outcome):
        irrep, vector = args[0], args[1]
        row = outcome.rotation.row(0) if outcome.rotation is not None else ()
        self.searches.append({
            "r": irrep.r,
            "vector": [str(x) for x in vector],
            "first_row": [str(x) for x in row],
            "found": bool(outcome.found),
            "samples": int(outcome.samples_used),
            "magnitude": float(outcome.magnitude),
        })

    def as_dict(self):
        return {
            "spans": [{"name": n, "parent": p, "start": s, "end": e,
                       "kernel_s": k, "peak_mb": pk}
                      for n, p, s, e, k, pk in self.spans],
            "kernel": {cls: {"calls": c, "seconds": t}
                       for cls, (c, t) in self.kernel.items()},
            "int_matmul_bytes": self.int_bytes,
            "max_numerator_bits": self.max_num.bit_length(),
            "max_denominator_bits": self.max_den.bit_length(),
            "searches": self.searches,
        }


def install(tracer):
    """Wrap the span targets and the DenseMatrix kernel operations."""
    importlib.import_module("quatspin.cli")
    namespaces = [mod for name, mod in sys.modules.items()
                  if name == "quatspin" or name.startswith("quatspin.")]
    for name in LAYER_OF_SPAN:
        mod_name, attr = name.split(".")
        original = getattr(sys.modules[f"quatspin.{mod_name}"], attr)
        if isinstance(original, type):
            original.__init__ = tracer.span(name, original.__init__)
            continue
        hook = tracer.record_search if attr == "find_rotation_with_top_component" else None
        wrapped = tracer.span(name, original, hook)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)
    matrix = sys.modules["quatspin.exact"].DenseMatrix
    matrix.__matmul__ = tracer.kernel_op(matrix.__matmul__, _matmul_class)
    for op in ("__add__", "__sub__", "scale"):
        setattr(matrix, op, tracer.kernel_op(getattr(matrix, op),
                                             lambda a, b: "elementwise"))


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+quatspin\.(\w+)\s*$")


def import_seconds(stderr_text):
    """Own import time of each quatspin module, from `python -X importtime`."""
    return {m.group(2): int(m.group(1)) / 1e6
            for m in map(_IMPORT_LINE.match, stderr_text.splitlines()) if m}


def layer_metrics(trace, imports):
    """Per-layer metrics from a trace: self times, counts, kernel figures.

    Every time metric also holds its module's own import time (`imports`,
    from import_seconds), a cost each fresh process pays for the layer; a
    layer that does no work on a workload reads just that.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    stems = sorted({stem for stem in LAYER_OF_SPAN.values() if stem})
    seconds = dict.fromkeys(stems, 0.0)
    calls = dict.fromkeys(COUNTED_LAYERS, 0)
    peaks = dict.fromkeys(PEAK_SPANS.values(), 0.0)
    for i, s in enumerate(spans):
        stem = LAYER_OF_SPAN.get(s["name"])
        if stem is None:
            continue
        seconds[stem] += s["end"] - s["start"] - child_time[i] - s["kernel_s"]
        if stem in calls:
            calls[stem] += 1
        if s["name"] in PEAK_SPANS:
            key = PEAK_SPANS[s["name"]]
            peaks[key] = max(peaks[key], s["peak_mb"])
    out = {f"{stem}_s": (value, "s") for stem, value in seconds.items()}
    out.update({f"{stem}_calls": (n, "count") for stem, n in calls.items()})
    out.update({key: (value, "MB") for key, value in peaks.items()})
    for cls, figures in trace["kernel"].items():
        out[f"exact.{cls}_calls"] = (figures["calls"], "count")
        out[f"exact.{cls}_s"] = (figures["seconds"], "s")
    out["exact.matmul_mb_computed"] = (trace["int_matmul_bytes"] / 1e6, "MB")
    out["exact.max_numerator_bits"] = (trace["max_numerator_bits"], "bits")
    out["exact.max_denominator_bits"] = (trace["max_denominator_bits"], "bits")
    out["so3.samples"] = (sum(s["samples"] for s in trace["searches"]), "count")
    for name, (value, unit) in out.items():
        if unit == "s":
            out[name] = (value + imports.get(name.split(".")[0], 0.0), unit)
    return out


def main(argv):
    trace_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from quatspin import cli
    code = cli.main(cli_argv)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.as_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
