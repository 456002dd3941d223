"""Property tests of the exact kernel against a Fraction reference.

Numerators are drawn around 2^26, 2^31, 2^32, 2^53, 2^62 and 2^63, so the
operations run through the float64 BLAS product, the int64 path, the
object-dtype fallback once a bound overflows int64, and the downcast back to
int64 when a result fits again.  Near 2^26 the product bound 2 k amax_a amax_b
straddles 2^53 for inner dimensions k = 1..3, the edge of the BLAS product.
Near 2^31 a sum of products may overflow int64; near 2^32 one product does.
"""

import math
from fractions import Fraction

import pytest

from quatspin.clifford import build_clifford_model
from quatspin.exact import DenseMatrix, ExactScalar
from quatspin.quaternionic import build_kaehler_operators, build_standard_triple

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


def to_matrix(g):
    return DenseMatrix.from_rows([[ExactScalar(*e) for e in row] for row in g])


def from_matrix(m):
    return [[(m[i, j].re, m[i, j].im) for j in range(m.cols)]
            for i in range(m.rows)]


def mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


@settings
@hypothesis.given(dims, dims, dims, st.data())
def test_matmul_matches_reference(n, k, p, data):
    a = data.draw(grid(n, k))
    b = data.draw(grid(k, p))
    expect = []
    for i in range(n):
        row = []
        for j in range(p):
            re = im = Fraction(0)
            for t in range(k):
                d_re, d_im = mul(a[i][t], b[t][j])
                re, im = re + d_re, im + d_im
            row.append((re, im))
        expect.append(row)
    assert from_matrix(to_matrix(a) @ to_matrix(b)) == expect


def test_product_just_above_the_float_guard_is_exact():
    # 3 * 3002399751580331 = 2^53 + 1, odd, so float64 cannot hold it; the
    # bound 2 * 1 * 3 * 3002399751580331 is above 2^53, so int64 takes it
    product = DenseMatrix.from_rows([[3]]) @ DenseMatrix.from_rows([[3002399751580331]])
    assert product[0, 0] == 2**53 + 1
    # the factor 2 of the bound covers the two terms of a complex product:
    # here each term is below 2^53 but their odd sum, 2^53 + 9 * 2^26 + 9, is not
    x = 2**26 + 3
    a = DenseMatrix.from_rows([[ExactScalar(x, x)]])
    b = DenseMatrix.from_rows([[ExactScalar(2**26 + 2, 2**26 + 1)]])
    assert (a @ b)[0, 0] == ExactScalar(x, x * (2**27 + 3))


def with_object_numerators(m):
    """The same matrix, its numerators held as object-dtype Python ints."""
    return DenseMatrix(rows=m.rows, cols=m.cols, kind="exact",
                       re=m._re.astype(object), im=m._im.astype(object), den=m._den)


def test_clifford_layer_product_matches_object_dtype():
    model = build_clifford_model(3)
    ops = build_kaehler_operators(model, build_standard_triple(model))
    a, b = ops.kraines, ops[2]
    assert a.rows == 64 and 2 * a.cols * a._amax * b._amax < 2**53
    product = a @ b
    assert not product.is_zero()
    assert product == with_object_numerators(a) @ with_object_numerators(b)


@settings
@hypothesis.given(grids(count=2))
def test_add_and_sub_match_reference(pair):
    a, b = pair
    ma, mb = to_matrix(a), to_matrix(b)
    assert from_matrix(ma + mb) == [[(x[0] + y[0], x[1] + y[1]) for x, y in zip(ra, rb)]
                                    for ra, rb in zip(a, b)]
    assert from_matrix(ma - mb) == [[(x[0] - y[0], x[1] - y[1]) for x, y in zip(ra, rb)]
                                    for ra, rb in zip(a, b)]


@settings
@hypothesis.given(grids(), entries)
def test_scale_matches_reference(single, s):
    (a,) = single
    got = to_matrix(a).scale(ExactScalar(*s))
    assert from_matrix(got) == [[mul(x, s) for x in row] for row in a]


@settings
@hypothesis.given(grids())
def test_norms_match_reference(single):
    (a,) = single
    m = to_matrix(a)
    squares = [x[0] ** 2 + x[1] ** 2 for row in a for x in row]
    assert m.frobenius_norm2() == sum(squares)
    assert math.isclose(m.max_abs(), math.sqrt(max(squares)), rel_tol=1e-12)
