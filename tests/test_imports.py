"""Every module-level import of the package is read where it is imported,
every import names the package, the standard library or a declared
dependency, no module imports another's private (underscore) name, the
package namespace re-exports nothing, and every public function or class of
a package module, and every public method or property of its classes, is
read in the package or listed with a reason.

A deletion that leaves its import behind costs every command's start-up
for nothing.  `from __future__` imports are compiler directives.  Imports
inside functions count for the dependency check too: an installed package
that pyproject.toml does not declare would break the program where it is
absent.

A private name is read only in its own module: code that needs another
module's private names belongs in that module, or the name is made public.

`__init__.py` imports no package module, so each name has one import path:
its own module.  A public function or class that no module of the package
reads is kept only for readers outside it; `UNREAD_DEFINITIONS` gives each
such name its reason, and an entry goes stale, failing the check, once its
name gains a reader in the package or is deleted.

A public method or property of a package class counts as read when some
package module reads an attribute of that name.  `UNREAD_ATTRIBUTES` gives
each one that only readers outside the package use its reason, and an
entry goes stale, as in `UNREAD_DEFINITIONS`, once its name gains a reader.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quatspin"
MODULES = sorted(PACKAGE.glob("*.py"))
DEPENDENCIES = {"numpy"}  # the dependencies of pyproject.toml
UNREAD_DEFINITIONS = {
    "p_plus": "the paper's definition, which the tests check the calculus against",
    "p_minus": "the paper's definition, which the tests check the calculus against",
    "q_plus": "the paper's definition, which the tests check the calculus against",
    "highest_weight_component": "imported by perfbench/tests",
    "column_space_basis": "traced by perfbench/tracer.py; the so(3) span row and the "
                          "block-local storage would call it",
    "bound_property_report": "the bound properties of acceptance criterion 5, "
                             "certified for every m, until a verify segment reads them",
}
UNREAD_ATTRIBUTES = {
    "ExactScalar.conjugate": "the reference for hermitian() in tests/test_sparse.py",
    "VerificationReport.failures": "the negative controls name the failing rows with it",
    "DenseMatrix.to_complex_array": "the float tests compare against numpy arrays",
    "BoundCoefficient.usable": "tests/test_bounds.py checks which coefficients are usable",
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_relative_standard_or_declared(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    allowed = sys.stdlib_module_names | DEPENDENCIES
    assert [name for name in names if name.split(".")[0] not in allowed] == []


def test_no_module_imports_a_private_name_of_another():
    # every package import is relative: `from quatspin...` fails the check above
    imported = [f"{path.name}: {alias.name}" for path in MODULES
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.level > 0
                for alias in node.names if alias.name.startswith("_")]
    assert imported == []


def test_the_package_namespace_re_exports_nothing():
    # `from quatspin...` would fail the dependency check above
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(init)
            if isinstance(node, ast.ImportFrom) and node.level > 0] == []


def test_every_public_definition_is_read_in_the_package_or_listed():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    read = set().union(*(_read_names(tree) for tree in trees))
    assert sorted(defined - read) == sorted(UNREAD_DEFINITIONS)


def test_every_public_attribute_is_read_in_the_package_or_listed():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    defined = [f"{cls.name}.{node.name}" for tree in trees for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert sorted(name for name in defined
                  if name.split(".")[1] not in read) == sorted(UNREAD_ATTRIBUTES)
