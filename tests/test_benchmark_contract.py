"""The names and calls the benchmark harness relies on must exist in the
package, and be reached through them.

`perfbench/tracer.py` wraps every function in its LAYER_OF_SPAN table by
"module.attribute" and the DenseMatrix kernel operations by name, so a
rename in quatspin breaks traced benchmark runs.  It rebinds the module
globals that hold each function, so a caller that reached one through a
reference captured elsewhere would record no span and empty that layer's
metrics; a traced `verify --m 1` must therefore record a span of every
stage.  `perfbench/checks.py` confirms each traced rotation search with a
float eigendecomposition of its own, and perfbench's tests call the so(3)
constructors with `kind="exact"`.  `perfbench/run.py` passes each
workload's command line to the CLI, so every one must still parse.  The
harness's own tests are not in the default test paths; these keep the
contract in tier-1.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quatspin import cli
from quatspin.exact import DenseMatrix
from quatspin.so3 import build_irrep, highest_weight_component, rotation_from_quaternion

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
CHECKS = ROOT / "perfbench" / "checks.py"
RUN = ROOT / "perfbench" / "run.py"


def _load(monkeypatch, path):
    # no bytecode cache next to the harness: the test leaves perfbench/ as is
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    name = f"perfbench_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # registered while it loads: its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _traced(tmp_path, *argv):
    """The trace of one quatspin command run under the tracer."""
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-B", str(TRACER), str(trace), *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(trace.read_text())


def test_every_traced_name_resolves(monkeypatch):
    tracer = _load(monkeypatch, TRACER)
    assert tracer.LAYER_OF_SPAN
    for name in tracer.LAYER_OF_SPAN:
        mod_name, attr = name.split(".")
        module = importlib.import_module(f"quatspin.{mod_name}")
        assert callable(getattr(module, attr, None)), name


def test_wrapped_kernel_operations_exist():
    for op in ("__matmul__", "__add__", "__sub__", "scale"):
        assert callable(getattr(DenseMatrix, op, None)), op


def test_a_traced_verify_records_every_stage(tmp_path):
    spans = {span["name"] for span in _traced(tmp_path, "verify", "--m", "1")["spans"]}
    for name in ("quaternionic.structure_report", "quaternionic.build_kaehler_operators",
                 "decomposition.decompose", "decomposition.decomposition_report",
                 "projectors.ProjectorCalculus", "projectors.verify_lemma_identities",
                 "projectors.constants_report"):
        assert name in spans, name


def test_traced_searches_pass_the_harness_check(tmp_path, monkeypatch):
    checks = _load(monkeypatch, CHECKS)
    trace = _traced(tmp_path, "so3-check", "--backend", "exact", "--max-r", "2",
                    "--trials", "3")
    assert checks.check_searches(trace["searches"], 2, 3) == []


def test_top_weight_components_match_the_harness_reference(monkeypatch):
    # the harness's reference is numpy's eigh of the Hermitian form of the
    # rotated generator; the program's component is exact, on integer
    # rotations and vectors as perfbench's tests build them, and on Haar
    # rotations and normal vectors read exactly as large rationals
    checks = _load(monkeypatch, CHECKS)
    rng = np.random.default_rng(73)
    cases = 0
    for r in range(11):
        irrep = build_irrep(r, kind="exact")
        for _ in range(4):
            q = [int(x) for x in rng.integers(-9, 10, size=4)]
            v = [int(x) for x in rng.integers(-9, 10, size=r + 1)]
            runs = [(rotation_from_quaternion(*rng.standard_normal(4)),
                     [Fraction(float(x)) for x in rng.standard_normal(r + 1)])]
            if any(q) and any(v):
                runs.append((rotation_from_quaternion(*q, kind="exact"), v))
            for g, vec in runs:
                size, top = checks.top_weight_component(r, g.row(0), vec)
                assert top == pytest.approx(r, abs=1e-9)
                assert highest_weight_component(irrep, g, vec) == \
                    pytest.approx(size, rel=1e-9), (r, vec)
                cases += 1
    assert cases > 80


def test_every_workload_parses(monkeypatch):
    # run.py imports checks and tracer from its own directory
    monkeypatch.syspath_prepend(str(RUN.parent))
    added = [name for name in ("checks", "tracer") if name not in sys.modules]
    try:
        run = _load(monkeypatch, RUN)
    finally:
        for name in added:
            sys.modules.pop(name, None)
    parser = cli.build_parser()
    assert run.WORKLOADS
    for name, workload in run.WORKLOADS.items():
        args = parser.parse_args(workload.argv(1))
        assert callable(args.handler), name
