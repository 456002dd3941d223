"""Property tests of the exact kernel, SparseMatrix, against a Fraction reference.

Every result must equal the reference and hold the canonical form: a
positive denominator in lowest terms, only nonzeros at strictly increasing
positions, int64 numerators unless one reaches 2^62, and a fingerprint that
does not change when the same numerators are held as object dtype, so a
model hash cannot depend on the storage.

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
from quatspin.exact import ExactScalar
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
    """The grid as a SparseMatrix of ExactScalar entries."""
    return SparseMatrix.from_rows([[ExactScalar(*e) for e in row] for row in g])


def from_matrix(m):
    return [[(m[i, j].re, m[i, j].im) for j in range(m.cols)]
            for i in range(m.rows)]


def with_object_numerators(m):
    """The same sparse matrix, its numerators held as object-dtype Python ints."""
    return SparseMatrix(m.rows, m.cols, m._key, m._re.astype(object),
                        m._im.astype(object), m._den, m._amax)


def check(m, expect):
    """The matrix gives the reference, in canonical form."""
    assert from_matrix(m) == expect
    nums = m._re.tolist() + m._im.tolist()
    assert m._den > 0 and math.gcd(m._den, *nums) == 1
    assert m._amax == max(map(abs, nums), default=0)
    assert m._re.dtype == m._im.dtype
    assert m._re.dtype == np.int64 or m._amax >= 2**62
    assert m.fingerprint() == with_object_numerators(m).fingerprint()
    # only nonzeros are stored, at strictly increasing positions
    assert ((m._re != 0) | (m._im != 0)).all()
    assert (np.diff(m._key) > 0).all()


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
    check(build(a) @ build(b), reference_product(a, b))


@pytest.mark.parametrize("base", BOUNDARIES)
@pytest.mark.parametrize("k", [1, 2, 4])
def test_row_and_column_shapes(base, k):
    row = [[(Fraction(base + t), Fraction(1 - base)) for t in range(k)]]
    col = [[(Fraction(t - base, 3), Fraction(base))] for t in range(k)]
    r, c = build(row), build(col)
    check(r @ c, reference_product(row, col))
    check(c @ r, reference_product(col, row))
    check(r + r, [[(2 * x[0], 2 * x[1]) for x in row[0]]])


def test_product_just_above_the_float_guard_is_exact():
    # 3 * 3002399751580331 = 2^53 + 1, odd, so float64 cannot hold it; the
    # int64 path forms it exactly
    product = SparseMatrix.from_rows([[3]]) @ SparseMatrix.from_rows([[3002399751580331]])
    assert product[0, 0] == 2**53 + 1
    # a complex product whose two terms are each below 2^53 but whose
    # odd sum, 2^53 + 9 * 2^26 + 9, is not
    x = 2**26 + 3
    a = SparseMatrix.from_rows([[ExactScalar(x, x)]])
    b = SparseMatrix.from_rows([[ExactScalar(2**26 + 2, 2**26 + 1)]])
    assert (a @ b)[0, 0] == ExactScalar(x, x * (2**27 + 3))


def test_clifford_layer_product_matches_object_dtype():
    model = build_clifford_model(3)
    ops = build_kaehler_operators(model, build_standard_triple(model))
    a, b = ops.kraines, ops[2]
    assert isinstance(a, SparseMatrix) and a.rows == 64
    assert a._re.dtype == np.int64 and 2 * a.cols * a._amax * b._amax < 2**63
    product = a @ b
    assert not product.is_zero()
    assert product == with_object_numerators(a) @ with_object_numerators(b)


@settings
@hypothesis.given(grids(count=2))
def test_add_and_sub_match_reference(pair):
    a, b = pair
    sa, sb = build(a), build(b)
    check(sa + sb, [[(x[0] + y[0], x[1] + y[1]) for x, y in zip(ra, rb)]
                    for ra, rb in zip(a, b)])
    check(sa - sb, [[(x[0] - y[0], x[1] - y[1]) for x, y in zip(ra, rb)]
                    for ra, rb in zip(a, b)])


@settings
@hypothesis.given(grids(), entries)
def test_scale_matches_reference(single, s):
    (a,) = single
    s = ExactScalar(*s)
    check(build(a).scale(s), [[mul(x, (s.re, s.im)) for x in row] for row in a])


@settings
@hypothesis.given(grids(), dims)
def test_exact_cancellation_leaves_an_empty_matrix(single, p):
    (a,) = single
    n, k = len(a), len(a[0])
    b = [[(Fraction(t + 1), Fraction(t - j)) for j in range(p)] for t in range(k)]
    # [a a] @ [b; -b] = a b - a b: every term is formed, and all cancel
    wide = [row + row for row in a]
    tall = b + [[(-x[0], -x[1]) for x in row] for row in b]
    sw, st_ = build(wide), build(tall)
    zero_np = [[(0, 0)] * p for _ in range(n)]
    zero_nk = [[(0, 0)] * k for _ in range(n)]
    check(sw @ st_, zero_np)
    sp = build(a)
    check(sp - sp, zero_nk)
    check(sp + -sp, zero_nk)
    check(sp.scale(0), zero_nk)
    for m in (sw @ st_, sp - sp, sp.scale(0)):
        assert m.is_zero() and m._key.size == 0 and m._den == 1


@settings
@hypothesis.given(dims, dims, dims, st.data())
def test_all_zero_operands(n, k, p, data):
    a = data.draw(grid(n, k))
    b = data.draw(grid(k, p))
    sa, sb = build(a), build(b)
    sz_nk, sz_kp = SparseMatrix.zeros(n, k), SparseMatrix.zeros(k, p)
    zero_np = [[(0, 0)] * p for _ in range(n)]
    check(sz_nk @ sb, zero_np)
    check(sa @ sz_kp, zero_np)
    check(sz_nk @ sz_kp, zero_np)
    check(sa + sz_nk, a)
    check(sz_nk - sa, [[(-x[0], -x[1]) for x in row] for row in a])
    check(sz_nk.scale(ExactScalar(2, -3)), [[(0, 0)] * k for _ in range(n)])


@settings
@hypothesis.given(grids())
def test_norms_match_reference(single):
    (a,) = single
    m = build(a)
    squares = [x[0] ** 2 + x[1] ** 2 for row in a for x in row]
    assert m.frobenius_norm2() == sum(squares)
    assert math.isclose(m.max_abs(), math.sqrt(max(squares)), rel_tol=1e-12)


@settings
@hypothesis.given(grids())
def test_transpose_and_hermitian_match_reference(single):
    (a,) = single
    m = build(a)
    t = [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]
    check(m.transpose(), t)
    check(m.hermitian(), [[(x[0], -x[1]) for x in row] for row in t])


def whole_or_fraction(q):
    return int(q) if q.denominator == 1 else q


@settings
@hypothesis.given(grids())
def test_from_rows_matches_reference(single):
    (a,) = single
    # real entries as int or Fraction, the others as ExactScalar
    mixed = [[whole_or_fraction(x[0]) if x[1] == 0 else ExactScalar(*x) for x in row]
             for row in a]
    check(SparseMatrix.from_rows(mixed), a)
    real = [[x[0] for x in row] for row in a]
    check(SparseMatrix.from_rows(real), [[(x, 0) for x in row] for row in real])
