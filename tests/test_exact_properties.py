"""Property tests of the exact kernels against a Fraction reference.

Every operation runs on both exact storages, DenseMatrix and SparseMatrix,
and each result must equal the reference and hold the same canonical form
in both: the same denominator, the same numerators and dtype, and the same
fingerprint, so a model hash cannot depend on the storage.

Numerators are drawn around 2^26, 2^31, 2^32, 2^53, 2^62 and 2^63, so the
operations run through the int64 path, the object-dtype fallback once a
bound overflows int64, and the downcast back to int64 when a result fits
again.  Near 2^26 the product bound 2 k amax_a amax_b straddles 2^53 for
inner dimensions k = 1..3, and near 2^53 the numerators themselves do:
there int64 arithmetic is exact where float64 would round.  Near 2^31 a
sum of products may overflow int64; near 2^32 one product does.  2^62 is
the downcast limit, and numerators near 2^63 only fit object dtype.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from quatspin.clifford import build_clifford_model
from quatspin.exact import DenseMatrix, ExactScalar
from quatspin.quaternionic import build_kaehler_operators, build_standard_triple
from quatspin.sparse import SparseMatrix

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

BOUNDARIES = (2**26, 2**31, 2**32, 2**53, 2**62, 2**63)

near_boundary = st.builds(lambda base, offset, sign: sign * (base + offset),
                          st.sampled_from(BOUNDARIES), st.integers(-3, 3),
                          st.sampled_from((1, -1)))
numerators = st.one_of(st.integers(-9, 9), near_boundary)
# an entry as a (re, im) pair of Fractions
entries = st.builds(lambda re, im, den: (Fraction(re, den), Fraction(im, den)),
                    numerators, numerators, st.sampled_from((1, 2, 3)))
dims = st.integers(1, 3)

settings = hypothesis.settings(derandomize=True, deadline=None, max_examples=150)


def grid(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def grids(draw, count=1):
    rows, cols = draw(dims), draw(dims)
    return [draw(grid(rows, cols)) for _ in range(count)]


def build(g):
    """The grid as an exact (DenseMatrix, SparseMatrix) pair."""
    rows = [[ExactScalar(*e) for e in row] for row in g]
    return DenseMatrix.from_rows(rows), SparseMatrix.from_rows(rows)


def from_matrix(m):
    return [[(m[i, j].re, m[i, j].im) for j in range(m.cols)]
            for i in range(m.rows)]


def check(pair, expect):
    """Both storages give the reference, in one canonical form."""
    dense, sparse = pair
    assert from_matrix(dense) == expect
    assert from_matrix(sparse) == expect
    assert sparse._den == dense._den
    assert sparse._re.dtype == dense._re.dtype
    assert sparse.to_dense() == dense
    assert sparse.fingerprint() == dense.fingerprint()
    # only nonzeros are stored, at strictly increasing positions
    assert ((sparse._re != 0) | (sparse._im != 0)).all()
    assert (np.diff(sparse._key) > 0).all()


def mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def reference_product(a, b):
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            re = im = Fraction(0)
            for x, col in zip(row, b):
                d_re, d_im = mul(x, col[j])
                re, im = re + d_re, im + d_im
            out[-1].append((re, im))
    return out


@settings
@hypothesis.given(dims, dims, dims, st.data())
def test_matmul_matches_reference(n, k, p, data):
    a = data.draw(grid(n, k))
    b = data.draw(grid(k, p))
    (da, sa), (db, sb) = build(a), build(b)
    check((da @ db, sa @ sb), reference_product(a, b))


@pytest.mark.parametrize("base", BOUNDARIES)
@pytest.mark.parametrize("k", [1, 2, 4])
def test_row_and_column_shapes(base, k):
    row = [[(Fraction(base + t), Fraction(1 - base)) for t in range(k)]]
    col = [[(Fraction(t - base, 3), Fraction(base))] for t in range(k)]
    (dr, sr), (dc, sc) = build(row), build(col)
    check((dr @ dc, sr @ sc), reference_product(row, col))
    check((dc @ dr, sc @ sr), reference_product(col, row))
    check((dr + dr, sr + sr), [[(2 * x[0], 2 * x[1]) for x in row[0]]])


def test_product_just_above_the_float_guard_is_exact():
    # 3 * 3002399751580331 = 2^53 + 1, odd, so float64 cannot hold it; the
    # int64 path forms it exactly in both storages
    for cls in (DenseMatrix, SparseMatrix):
        product = cls.from_rows([[3]]) @ cls.from_rows([[3002399751580331]])
        assert product[0, 0] == 2**53 + 1
        # a complex product whose two terms are each below 2^53 but whose
        # odd sum, 2^53 + 9 * 2^26 + 9, is not
        x = 2**26 + 3
        a = cls.from_rows([[ExactScalar(x, x)]])
        b = cls.from_rows([[ExactScalar(2**26 + 2, 2**26 + 1)]])
        assert (a @ b)[0, 0] == ExactScalar(x, x * (2**27 + 3))


def with_object_numerators(m):
    """The same sparse matrix, its numerators held as object-dtype Python ints."""
    return SparseMatrix(m.rows, m.cols, m._key, m._re.astype(object),
                        m._im.astype(object), m._den, m._amax)


def test_clifford_layer_product_matches_object_dtype():
    model = build_clifford_model(3)
    ops = build_kaehler_operators(model, build_standard_triple(model))
    a, b = ops.kraines, ops[2]
    assert isinstance(a, SparseMatrix) and a.rows == 64
    assert a._re.dtype == np.int64 and 2 * a.cols * a._amax * b._amax < 2**63
    product = a @ b
    assert not product.is_zero()
    assert product == with_object_numerators(a) @ with_object_numerators(b)
    assert product.to_dense() == a.to_dense() @ b.to_dense()


@settings
@hypothesis.given(grids(count=2))
def test_add_and_sub_match_reference(pair):
    a, b = pair
    (da, sa), (db, sb) = build(a), build(b)
    check((da + db, sa + sb), [[(x[0] + y[0], x[1] + y[1]) for x, y in zip(ra, rb)]
                               for ra, rb in zip(a, b)])
    check((da - db, sa - sb), [[(x[0] - y[0], x[1] - y[1]) for x, y in zip(ra, rb)]
                               for ra, rb in zip(a, b)])


@settings
@hypothesis.given(grids(), entries)
def test_scale_matches_reference(single, s):
    (a,) = single
    d, sp = build(a)
    s = ExactScalar(*s)
    check((d.scale(s), sp.scale(s)), [[mul(x, (s.re, s.im)) for x in row] for row in a])


@settings
@hypothesis.given(grids(), dims)
def test_exact_cancellation_leaves_an_empty_matrix(single, p):
    (a,) = single
    n, k = len(a), len(a[0])
    b = [[(Fraction(t + 1), Fraction(t - j)) for j in range(p)] for t in range(k)]
    # [a a] @ [b; -b] = a b - a b: every term is formed, and all cancel
    wide = [row + row for row in a]
    tall = b + [[(-x[0], -x[1]) for x in row] for row in b]
    (dw, sw), (dt, st_) = build(wide), build(tall)
    zero_np = [[(0, 0)] * p for _ in range(n)]
    zero_nk = [[(0, 0)] * k for _ in range(n)]
    check((dw @ dt, sw @ st_), zero_np)
    d, sp = build(a)
    check((d - d, sp - sp), zero_nk)
    check((d + -d, sp + -sp), zero_nk)
    check((d.scale(0), sp.scale(0)), zero_nk)
    for m in (sw @ st_, sp - sp, sp.scale(0)):
        assert m.is_zero() and m._key.size == 0 and m._den == 1


@settings
@hypothesis.given(dims, dims, dims, st.data())
def test_all_zero_operands(n, k, p, data):
    a = data.draw(grid(n, k))
    b = data.draw(grid(k, p))
    (da, sa), (db, sb) = build(a), build(b)
    dz_nk, sz_nk = DenseMatrix.zeros(n, k), SparseMatrix.zeros(n, k)
    dz_kp, sz_kp = DenseMatrix.zeros(k, p), SparseMatrix.zeros(k, p)
    zero_np = [[(0, 0)] * p for _ in range(n)]
    check((dz_nk @ db, sz_nk @ sb), zero_np)
    check((da @ dz_kp, sa @ sz_kp), zero_np)
    check((dz_nk @ dz_kp, sz_nk @ sz_kp), zero_np)
    check((da + dz_nk, sa + sz_nk), from_matrix(da))
    check((dz_nk - da, sz_nk - sa), from_matrix(-da))
    check((dz_nk.scale(ExactScalar(2, -3)), sz_nk.scale(ExactScalar(2, -3))),
          [[(0, 0)] * k for _ in range(n)])


@settings
@hypothesis.given(grids())
def test_norms_match_reference(single):
    (a,) = single
    d, sp = build(a)
    squares = [x[0] ** 2 + x[1] ** 2 for row in a for x in row]
    assert d.frobenius_norm2() == sum(squares)
    for m in (d, sp):
        assert math.isclose(m.max_abs(), math.sqrt(max(squares)), rel_tol=1e-12)
