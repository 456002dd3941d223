"""Every module-level import of the package is read where it is imported,
every import names the package, the standard library or a declared
dependency, and every name the package re-exports is read in it or listed
with a reason.

A deletion that leaves its import behind costs every command's start-up
for nothing.  `__init__.py` is left out of the first check: its imports are
the re-exported public names.  `from __future__` imports are compiler
directives.  A re-exported name that no module of the package reads is
kept only for readers outside it; `UNREAD_EXPORTS` gives each such name
its reason, and an entry goes stale, failing the check, once its name
gains a reader in the package or leaves `__init__.py`.  Imports inside
functions count for the dependency check too: an installed package that
pyproject.toml does not declare would break the program where it is absent.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quatspin"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEPENDENCIES = {"numpy"}  # the dependencies of pyproject.toml
UNREAD_EXPORTS = {
    "p_plus": "the paper's definition, which the tests check the calculus against",
    "p_minus": "the paper's definition, which the tests check the calculus against",
    "q_plus": "the paper's definition, which the tests check the calculus against",
    "top_weight_projector": "ties the continuant's eigenvectors to the Lagrange product "
                            "in tests/test_so3.py",
    "highest_weight_component": "imported by perfbench/tests",
    "column_space_basis": "traced by perfbench/tracer.py; the so(3) span row and the "
                          "block-local storage would call it",
    "bound_property_report": "the bound properties of acceptance criterion 5, "
                             "certified for every m, until a verify segment reads them",
}


def _bound_names(node):
    """The names a top-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    # `import a.b` binds a; `import a as b` and `from a import c as b` bind b
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _read_names(tree):
    """The names the tree reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in _bound_names(node)]
    read = _read_names(tree)
    assert [name for name in imported if name not in read] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_relative_standard_or_declared(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    allowed = sys.stdlib_module_names | DEPENDENCIES
    assert [name for name in names if name.split(".")[0] not in allowed] == []


def test_every_export_is_read_in_the_package_or_listed():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    read = set().union(*(_read_names(ast.parse(path.read_text(encoding="utf-8")))
                         for path in MODULES))
    assert sorted(exported - read) == sorted(UNREAD_EXPORTS)
