"""SparseMatrix, the one exact storage.

Every exact matrix is a SparseMatrix: the Clifford layer's spinor-space
operators, whose rows stay short, and also the triple, the vectors and
so(3)'s matrices; DenseMatrix is the float backend only.  The generators
built by index arithmetic equal the iterated tensor products, and importing
the CLI does not pull in scipy, whose import alone would cost more than
numpy's.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from quatspin.clifford import build_clifford_model
from quatspin.decomposition import decompose
from quatspin.errors import DimensionError
from quatspin.exact import DenseMatrix, ExactScalar
from quatspin.projectors import ProjectorCalculus
from quatspin.quaternionic import (
    build_adapted_basis,
    build_kaehler_operators,
    build_standard_triple,
)
from quatspin.so3 import (
    build_irrep,
    rotated_generator,
    rotation_from_quaternion,
    top_weight_projector,
)
from quatspin.sparse import SparseMatrix


def _row_nnz(m):
    return np.bincount(m._key // m.cols, minlength=m.rows)


def test_cli_import_leaves_scipy_out():
    code = ("import sys, quatspin.cli; "
            "print(sorted(n for n in sys.modules if n.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ), check=True).stdout
    assert out.strip() == "[]"


def test_exact_clifford_layer_is_sparse_at_m4():
    model = build_clifford_model(4)
    triple = build_standard_triple(model)
    ops = build_kaehler_operators(model, triple)
    dec = decompose(model, ops)
    operators = [*model.gamma, *ops.omega, ops.kraines,
                 *dec.r_projectors.values(), *dec.k_projectors.values(),
                 *(b.projector for b in dec.blocks.values())]
    assert len(operators) == 16 + 3 + 1 + 5 + 9 + 45
    for op in operators:
        assert isinstance(op, SparseMatrix)
        assert _row_nnz(op).max() <= 6
    for g in model.gamma:
        assert (_row_nnz(g) == 1).all()
    # no second exact storage: the small operands are sparse too
    basis = build_adapted_basis(model, triple)
    calc = ProjectorCalculus(model, triple, ops)
    actions = [x for u in calc.act for x in calc.act[u]]
    actions += [x for u in calc.act_j for a in calc.act_j[u] for x in calc.act_j[u][a]]
    irrep = build_irrep(10)
    rotated = rotated_generator(irrep, rotation_from_quaternion(2, 3, 6, 0))
    small = [*triple.j, *basis.f, *basis.f_bar, *actions, *irrep.h,
             top_weight_projector(irrep, rotated)]
    assert len(small) == 3 + 8 + 8 + 3 * 16 + 3 + 1
    for x in small:
        assert isinstance(x, SparseMatrix)
    assert DenseMatrix.kind == "float" and SparseMatrix.kind == "exact"


@pytest.mark.parametrize("m", [1, 2])
def test_generators_equal_the_tensor_products(m):
    exact = build_clifford_model(m)
    dense = build_clifford_model(m, kind="float")
    for g, c in zip(exact.gamma, dense.gamma):
        assert np.array_equal(g.to_float().to_complex_array(), c.to_complex_array())


def test_entry_access_trace_and_adjoints():
    rows = [[1, ExactScalar(0, 2), 0], [0, 0, ExactScalar(3, -1)],
            [ExactScalar(1, 1), 0, 5]]
    s = SparseMatrix.from_rows(rows)
    assert all(s[i, j] == rows[i][j] for i in range(3) for j in range(3))
    assert s.trace() == 6
    assert s.transpose() == SparseMatrix.from_rows(
        [[rows[j][i] for j in range(3)] for i in range(3)])
    assert s.hermitian() == SparseMatrix.from_rows(
        [[ExactScalar.coerce(rows[j][i]).conjugate() for j in range(3)]
         for i in range(3)])
    assert SparseMatrix.identity(3) == SparseMatrix.from_rows(
        [[int(i == j) for j in range(3)] for i in range(3)])
    with pytest.raises(IndexError):
        s[3, 0]


def test_from_rows_checks_its_input():
    with pytest.raises(DimensionError):
        SparseMatrix.from_rows([[1, 2], [3]])
    # a float or complex entry is refused, never rounded into a Fraction
    for bad in (0.5, 1.0, 1j, complex(2, 0), np.float64(3.0)):
        with pytest.raises(TypeError):
            SparseMatrix.from_rows([[1, bad]])
    empty = SparseMatrix.from_rows([])
    assert (empty.rows, empty.cols) == (0, 0) and empty.is_zero()


def test_storages_do_not_mix():
    d, s = DenseMatrix.identity(2), SparseMatrix.identity(2)
    for op in (lambda: s @ d, lambda: d @ s, lambda: s + d, lambda: d - s):
        with pytest.raises(TypeError):
            op()
    assert s != d
