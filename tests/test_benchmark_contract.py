"""The names the benchmark harness wraps must exist in the package.

`perfbench/tracer.py` wraps every function in its LAYER_OF_SPAN table by
"module.attribute" and the DenseMatrix kernel operations by name, so a
rename in quatspin breaks traced benchmark runs.  The harness's own tests
are not in the default test paths; this one keeps the contract in tier-1.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from quatspin.exact import DenseMatrix

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
