"""Report rows are made in `quatspin.report` alone.

A row's status and residual are decided by `residual_entry`, `bool_entry`
or `info_entry`; a module that calls `CheckEntry` itself restates that
decision, and can write a failed row without a witness.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quatspin"


def _calls_check_entry(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return any(isinstance(node, ast.Call)
               and (getattr(node.func, "id", None) == "CheckEntry"
                    or getattr(node.func, "attr", None) == "CheckEntry")
               for node in ast.walk(tree))


def test_only_the_report_module_constructs_rows():
    assert [p.name for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "report.py" and _calls_check_entry(p)] == []
