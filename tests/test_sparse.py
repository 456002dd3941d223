"""The sparse exact storage of the Clifford layer.

The exact Clifford layer keeps every spinor-space operator as a
SparseMatrix, and its rows stay short; the generators built by index
arithmetic equal the iterated tensor products; and importing the CLI does
not pull in scipy, whose import alone would cost more than numpy's.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from quatspin.clifford import build_clifford_model
from quatspin.decomposition import decompose
from quatspin.exact import DenseMatrix, ExactScalar
from quatspin.quaternionic import build_kaehler_operators, build_standard_triple
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
    ops = build_kaehler_operators(model, build_standard_triple(model))
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


@pytest.mark.parametrize("m", [1, 2])
def test_generators_equal_the_tensor_products(m):
    exact = build_clifford_model(m)
    dense = build_clifford_model(m, kind="float")
    for g, c in zip(exact.gamma, dense.gamma):
        assert np.array_equal(g.to_dense().to_complex_array(), c.to_complex_array())


def test_entry_access_trace_and_adjoints():
    rows = [[1, ExactScalar(0, 2), 0], [0, 0, ExactScalar(3, -1)],
            [ExactScalar(1, 1), 0, 5]]
    d, s = DenseMatrix.from_rows(rows), SparseMatrix.from_rows(rows)
    assert all(s[i, j] == d[i, j] for i in range(3) for j in range(3))
    assert s.trace() == d.trace() == 6
    assert s.hermitian().to_dense() == d.hermitian()
    assert SparseMatrix.identity(3).to_dense() == DenseMatrix.identity(3)
    with pytest.raises(IndexError):
        s[3, 0]


def test_storages_do_not_mix():
    d, s = DenseMatrix.identity(2), SparseMatrix.identity(2)
    for op in (lambda: s @ d, lambda: d @ s, lambda: s + d, lambda: d - s):
        with pytest.raises(TypeError):
            op()
    assert s != d
