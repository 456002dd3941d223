"""Property tests of the float kernel, DenseMatrix, against dense numpy arrays.

DenseMatrix stores its nonzeros by sorted linear index, as SparseMatrix
does, with one complex128 value array.  Every result must equal the dense
complex128 reference computed by numpy and keep its storage form: only
nonzero values, at strictly increasing positions inside the shape.

Entries are small multiples of 1/4 with both parts nonzero only sometimes,
so grids hold empty rows and columns, and every sum and product of them is
exact in float64: results must equal the reference bit for bit, whatever
the summation order.  Operands are built as the float backend's matrices
are, as `to_float` images of exact matrices (`dense`); a float entry is
read exactly, so the conversion is exact too.
"""

from fractions import Fraction

import numpy as np
import pytest

from quatspin.errors import DimensionError
from quatspin.exact import FLOAT_TOL, DenseMatrix, ExactScalar
from quatspin.sparse import SparseMatrix

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

parts = st.sampled_from((0, 0, 0, 1, -1, 2, -3)).map(lambda x: x / 4)
entries = st.builds(complex, parts, parts)
dims = st.integers(1, 4)

settings = hypothesis.settings(derandomize=True, deadline=None, max_examples=150)


def dense(rows):
    """The float matrix of a grid of complex entries, converted from the exact one."""
    return SparseMatrix.from_rows(
        [[ExactScalar(Fraction(x.real), Fraction(x.imag)) for x in map(complex, row)]
         for row in rows]).to_float()


def grid(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def grids(draw, count=1):
    rows, cols = draw(dims), draw(dims)
    return [draw(grid(rows, cols)) for _ in range(count)]


def check(m, expect):
    """The matrix equals the dense reference and stores only its nonzeros."""
    expect = np.asarray(expect, dtype=np.complex128)
    assert isinstance(m, DenseMatrix)
    assert (m.rows, m.cols) == expect.shape
    assert np.array_equal(m.to_complex_array(), expect)
    assert (m._v != 0).all()
    assert (np.diff(m._key) > 0).all()
    assert m._key.size == np.count_nonzero(expect)


# grids that reach the corner cases of the index arithmetic
CORNERS = [
    [[0j]],                                        # 1 x 1, all zero
    [[2 - 1j]],                                    # 1 x 1
    [[1, 0, 2j], [0, 0, 0]],                       # non-square, an empty row
    [[0, 0], [0, 3], [0, 0]],                      # one nonzero, empty rows
    [[0, 0, 0], [0, 0, 0]],                        # all zero, non-square
]


@settings
@hypothesis.given(dims, dims, dims, st.data())
def test_matmul_matches_reference(n, k, p, data):
    a = data.draw(grid(n, k))
    b = data.draw(grid(k, p))
    check(dense(a) @ dense(b), np.array(a) @ np.array(b))


@pytest.mark.parametrize("a", CORNERS)
def test_corner_grids_match_reference(a):
    ref = np.asarray(a, dtype=np.complex128)
    m = dense(a)
    check(m, ref)
    check(m @ m.hermitian(), ref @ ref.conj().T)
    check(m.transpose() @ m, ref.T @ ref)
    check(m + m, ref + ref)
    check(m - m, ref - ref)
    check(-m, -ref)
    assert m.frobenius_norm2() == np.sum(ref.real ** 2 + ref.imag ** 2)


def test_terms_that_all_land_on_empty_rows():
    # every nonzero of a sits in column 0, and row 0 of b is empty: the
    # product forms no term at all
    a = [[1, 0], [2j, 0], [0, 0]]
    b = [[0, 0, 0], [5, 0, -1j]]
    check(dense(a) @ dense(b), np.array(a) @ np.array(b))
    # and the same with the operands' roles reversed
    check(dense([[0, 4]]) @ dense([[1j], [0]]), [[0]])


@settings
@hypothesis.given(dims, dims, dims, st.data())
def test_all_zero_operands(n, k, p, data):
    a = dense(data.draw(grid(n, k)))
    b = dense(data.draw(grid(k, p)))
    za, zb = DenseMatrix.zeros(n, k), DenseMatrix.zeros(k, p)
    zero = np.zeros((n, p))
    check(za @ b, zero)
    check(a @ zb, zero)
    check(za @ zb, zero)
    check(a + za, a.to_complex_array())
    check(za - a, -a.to_complex_array())
    assert za.is_zero() and za.max_abs() == 0.0 and za.frobenius_norm2() == 0.0


@settings
@hypothesis.given(grids(count=2))
def test_add_sub_and_negation_match_reference(pair):
    a, b = pair
    ra, rb = np.array(a, dtype=np.complex128), np.array(b, dtype=np.complex128)
    da, db = dense(a), dense(b)
    check(da + db, ra + rb)
    check(da - db, ra - rb)
    check(-da, -ra)
    check(da + -da, np.zeros_like(ra))


@settings
@hypothesis.given(grids(), parts, parts)
def test_scale_matches_reference(single, re, im):
    (a,) = single
    ref, m = np.array(a, dtype=np.complex128), dense(a)
    s = complex(re, im)
    check(m.scale(s), ref * s)
    exact = ExactScalar(Fraction(re), Fraction(im))
    check(m.scale(exact), ref * s)
    check(m.scale(0), np.zeros_like(ref))


@settings
@hypothesis.given(grids())
def test_entries_trace_and_norms_match_reference(single):
    (a,) = single
    ref, m = np.array(a, dtype=np.complex128), dense(a)
    assert all(m[i, j] == ref[i, j] for i in range(m.rows) for j in range(m.cols))
    with pytest.raises(IndexError):
        m[m.rows, 0]
    with pytest.raises(IndexError):
        m[0, m.cols]
    if m.rows == m.cols:
        assert m.trace() == complex(ref.trace())
    else:
        with pytest.raises(DimensionError):
            m.trace()
    assert m.frobenius_norm2() == np.sum(ref.real ** 2 + ref.imag ** 2)
    assert m.max_abs() == float(np.abs(ref).max())


@settings
@hypothesis.given(grids())
def test_transpose_and_hermitian_match_reference(single):
    (a,) = single
    ref, m = np.array(a, dtype=np.complex128), dense(a)
    check(m.transpose(), ref.T)
    check(m.hermitian(), ref.conj().T)
    assert m.transpose().transpose() == m


@pytest.mark.parametrize("tol", [FLOAT_TOL, 1e-12, 0.25])
def test_is_zero_reads_the_stored_values_against_tol(tol):
    # is_zero() judges against FLOAT_TOL; a caller's own bound is max_abs() <= tol
    below, above = np.nextafter(tol, 0), np.nextafter(tol, 1)
    for entry, within in ((below, True), (tol, True), (above, False)):
        for sign in (1, -1, 1j, -1j):
            m = dense([[0, 0], [0, sign * entry]])
            assert (m.max_abs() <= tol) == within
            assert m.max_abs() == entry
            assert m.is_zero() == (entry <= FLOAT_TOL)
    assert DenseMatrix.zeros(2, 3).is_zero() and DenseMatrix.zeros(2, 3).max_abs() == 0.0


@pytest.mark.parametrize("cols, norm2", [(1, 0.8125), (64, 52.0)])
def test_frobenius_norm2_does_not_round_through_the_modulus(cols, norm2):
    # squaring the rounded modulus |0.75 - 0.5j| gives 0.8125000000000001
    assert dense([[0.75 - 0.5j] * cols]).frobenius_norm2() == norm2


def test_signed_zeros_hash_equal():
    key = np.arange(2, dtype=np.int64)
    plus = DenseMatrix(1, 2, key, np.array([complex(1, 0.0), 0]))
    minus = DenseMatrix(1, 2, key, np.array([complex(1, -0.0), -0.0]))
    assert plus == minus and plus.fingerprint() == minus.fingerprint()
    assert plus.fingerprint() != plus.scale(-1).fingerprint()


def test_ragged_rows_and_mixed_backends_are_refused():
    # a float matrix is built from the exact one, which refuses ragged rows
    with pytest.raises(DimensionError):
        dense([[1, 2], [3]])
    with pytest.raises(DimensionError):
        dense([[1], [2, 3]])
    d, s = dense([[1, 2j], [0, 3]]), SparseMatrix.from_rows([[1, 2], [0, 3]])
    for op in (lambda: d @ s, lambda: s @ d, lambda: d + s, lambda: s + d,
               lambda: d - s, lambda: s - d):
        with pytest.raises(TypeError):
            op()
    assert d != s
    with pytest.raises(DimensionError):
        d @ DenseMatrix.identity(3)
    with pytest.raises(DimensionError):
        d + DenseMatrix.identity(3)
