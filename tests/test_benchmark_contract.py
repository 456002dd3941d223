"""The names the benchmark harness wraps must exist in the package, and be
reached through them.

`perfbench/tracer.py` wraps every function in its LAYER_OF_SPAN table by
"module.attribute" and the DenseMatrix kernel operations by name, so a
rename in quatspin breaks traced benchmark runs.  It rebinds the module
globals that hold each function, so a caller that reached one through a
reference captured elsewhere would record no span and empty that layer's
metrics; a traced `verify --m 1` must therefore record a span of every
stage.  The harness's own tests are not in the default test paths; these
keep the contract in tier-1.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from quatspin.exact import DenseMatrix

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    # no bytecode cache next to the harness: the test leaves perfbench/ as is
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    assert tracer.LAYER_OF_SPAN
    for name in tracer.LAYER_OF_SPAN:
        mod_name, attr = name.split(".")
        module = importlib.import_module(f"quatspin.{mod_name}")
        assert callable(getattr(module, attr, None)), name


def test_wrapped_kernel_operations_exist():
    for op in ("__matmul__", "__add__", "__sub__", "scale"):
        assert callable(getattr(DenseMatrix, op, None)), op


def test_a_traced_verify_records_every_stage(tmp_path):
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-B", str(TRACER), str(trace), "verify", "--m", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    spans = {span["name"] for span in json.loads(trace.read_text())["spans"]}
    for name in ("quaternionic.structure_report", "quaternionic.build_kaehler_operators",
                 "decomposition.decompose", "decomposition.decomposition_report",
                 "projectors.ProjectorCalculus", "projectors.verify_lemma_identities",
                 "projectors.constants_report"):
        assert name in spans, name
