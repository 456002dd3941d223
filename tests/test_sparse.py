"""SparseMatrix, the one exact storage, and the float backend on the same indices.

Every exact matrix is a SparseMatrix: the Clifford layer's spinor-space
operators, whose rows stay short, and also the triple, the vectors and
so(3)'s matrices.  The float backend, DenseMatrix, stores its nonzeros the
same way, and its Clifford layer keeps the same short rows.  The generators
of both backends, built by index arithmetic, equal the iterated tensor
products of an np.kron chain, and importing the CLI does not pull in scipy,
whose import alone would cost more than numpy's, nor start an OpenBLAS
worker thread, unless the caller asked for one.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from quatspin.clifford import build_clifford_model
from quatspin.decomposition import build_world
from quatspin.errors import DimensionError
from quatspin.exact import DenseMatrix, ExactScalar
from quatspin.projectors import ProjectorCalculus
from quatspin.quaternionic import build_adapted_basis
from quatspin.so3 import (
    build_irrep,
    rotated_generator,
    rotation_from_quaternion,
    top_weight_projector,
)
from quatspin.sparse import SparseMatrix


_BLOCK_I = np.eye(2, dtype=np.complex128)
_BLOCK_A = np.array([[0, 1j], [1j, 0]], dtype=np.complex128)
_BLOCK_B = np.array([[0, 1], [-1, 0]], dtype=np.complex128)
_BLOCK_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _row_nnz(m):
    return np.bincount(m._key // m.cols, minlength=m.rows)


def _tensor_generators(m):
    """Z x ... x Z x (A | B) x I x ... x I over 2m factors, by np.kron."""
    pairs = 2 * m
    gammas = []
    for j in range(pairs):
        for block in (_BLOCK_A, _BLOCK_B):
            out = np.ones((1, 1), dtype=np.complex128)
            for f in [_BLOCK_Z] * j + [block] + [_BLOCK_I] * (pairs - j - 1):
                out = np.kron(out, f)
            gammas.append(out)
    return gammas


def test_cli_import_leaves_scipy_out():
    # nor dataclasses (records are NamedTuples, made without generated code)
    # nor csv (read only by --format csv): each costs every command start-up
    code = ("import sys, quatspin.cli; print(sorted(n for n in sys.modules "
            "if n.split('.')[0] in ('scipy', 'dataclasses', 'csv', '_csv')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ), check=True).stdout
    assert out.strip() == "[]"


def _threads_and_variable(code, **env):
    """Threads of a fresh interpreter after `code`, and its OPENBLAS_NUM_THREADS."""
    probe = ("; import os; print(len(os.listdir('/proc/self/task')), "
             "os.environ.get('OPENBLAS_NUM_THREADS'))")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run([sys.executable, "-c", code + probe], capture_output=True,
                         text=True, env={**base, **env}, check=True).stdout.split()
    return int(out[0]), out[1]


needs_proc_tasks = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                      reason="counts threads in /proc/self/task")


@needs_proc_tasks
def test_cli_import_starts_no_blas_worker():
    # one thread, and the variable set for numpy's load is gone again
    assert _threads_and_variable("import quatspin.cli") == (1, "None")


@needs_proc_tasks
def test_cli_import_keeps_the_callers_blas_thread_count():
    numpy_alone = _threads_and_variable("import numpy", OPENBLAS_NUM_THREADS="2")
    assert numpy_alone[1] == "2"
    assert _threads_and_variable("import quatspin.cli",
                                 OPENBLAS_NUM_THREADS="2") == numpy_alone


@needs_proc_tasks
def test_cli_import_leaves_an_earlier_numpy_alone():
    numpy_alone = _threads_and_variable("import numpy")
    assert numpy_alone[1] == "None"
    assert _threads_and_variable("import numpy, quatspin.cli") == numpy_alone


def test_exact_clifford_layer_is_sparse_at_m4():
    # the float layer too: its block projectors keep the rows of the exact
    # ones, round-off residues included, so float cancellation fills none in
    for kind, cls in (("float", DenseMatrix), ("exact", SparseMatrix)):
        world = build_world(build_clifford_model(4, kind=kind))
        model, ops, dec = world.model, world.ops, world.dec
        operators = [*model.gamma, *ops.omega, ops.kraines,
                     *dec.r_projectors.values(), *dec.k_projectors.values(),
                     *(b.projector for b in dec.blocks.values())]
        assert len(operators) == 16 + 3 + 1 + 5 + 9 + 45
        for op in operators:
            assert isinstance(op, cls)
            assert _row_nnz(op).max() <= 6
        for g in model.gamma:
            assert (_row_nnz(g) == 1).all()
    # no second exact storage: the small operands of the exact model, built
    # in the last pass above, are sparse too
    triple = world.triple
    basis = build_adapted_basis(model, triple)
    calc = ProjectorCalculus(world)
    actions = [x for u in calc.act for x in calc.act[u]]
    actions += [x for u in calc.act_j for a in calc.act_j[u] for x in calc.act_j[u][a]]
    irrep = build_irrep(10)
    rotated = rotated_generator(irrep, rotation_from_quaternion(2, 3, 6, 0))
    small = [*triple.j, *basis.f, *basis.f_bar, *actions, *irrep.h,
             top_weight_projector(irrep, rotated)]
    assert len(small) == 3 + 8 + 8 + 4 * 16 + 3 + 1
    for x in small:
        assert isinstance(x, SparseMatrix)
    assert DenseMatrix.kind == "float" and SparseMatrix.kind == "exact"


@pytest.mark.parametrize("m", [1, 2, 3])
def test_generators_equal_the_tensor_products(m):
    reference = _tensor_generators(m)
    exact = build_clifford_model(m)
    flt = build_clifford_model(m, kind="float")
    assert len(reference) == len(exact.gamma) == len(flt.gamma) == 4 * m
    for want, g, c in zip(reference, exact.gamma, flt.gamma):
        assert np.array_equal(g.to_float().to_complex_array(), want)
        assert np.array_equal(c.to_complex_array(), want)
        # the exact entries themselves, not only their float image
        nonzero = np.argwhere(want)
        assert len(nonzero) == g._key.size
        assert all(g[i, j].to_complex() == want[i, j] for i, j in nonzero)


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
