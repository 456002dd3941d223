"""The fused sum sum_t c_t L_t @ R_t + sum_s d_s M_s against the operation-by-
operation reference, in both backends, and a guard on how many sorts the
operator layers make.

The reference forms every product, scales it and adds it to a running
total, one binary operation at a time.  Exact results must compare equal
and hold the canonical form; float results must agree within FLOAT_TOL.
Coefficients are int, Fraction, ExactScalar and the units +-i.  The drawn
cases cover numerators on both sides of the int64 bound of the fused sum
(sum_t 2 inner amax_L |c_t| amax_R plus the plain terms, against 2^63),
left operands with at most one nonzero per row (whose product needs no
sort), and sums of equal-key matrices that cancel to exact zero.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from quatspin import exact
from quatspin.clifford import build_clifford_model
from quatspin.decomposition import build_world
from quatspin.exact import FLOAT_TOL, DenseMatrix, ExactScalar, SparseMatrix, fused_sum
from quatspin.errors import DimensionError
from quatspin.projectors import ProjectorCalculus
from quatspin.quaternionic import build_kaehler_operators, structure_report
from quatspin.symmetry import certify_line_symmetry

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

settings = hypothesis.settings(derandomize=True, deadline=None, max_examples=60)

# numerators next to 2^30, 2^31, 2^61, 2^62 and 2^63: a sum of a few products
# of two such numerators, or of a product and a scale, lands on either side
# of 2^63, and a result may fall back below 2^62
BOUNDARIES = (2**30, 2**31, 2**61, 2**62, 2**63)
near_boundary = st.builds(lambda base, offset, sign: sign * (base + offset),
                          st.sampled_from(BOUNDARIES), st.integers(-2, 2),
                          st.sampled_from((1, -1)))
small = st.integers(-4, 4)
dens = st.sampled_from((1, 2, 3, 4))
I = ExactScalar(0, 1)
coefficients = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6)),
    st.builds(lambda a, b, d: ExactScalar(Fraction(a, d), Fraction(b, d)),
              small, small, dens),
    st.sampled_from((I, -I)),
)


def entries(numerators):
    return st.builds(lambda re, im, den: ExactScalar(Fraction(re, den), Fraction(im, den)),
                     numerators, numerators, dens)


@st.composite
def matrices(draw, rows, cols, numerators, monomial_rows=False):
    """A rows x cols exact matrix; monomial_rows keeps at most one nonzero per row."""
    zero = ExactScalar(0)
    grid = [[draw(st.one_of(st.just(zero), entries(numerators))) for _ in range(cols)]
            for _ in range(rows)]
    if monomial_rows:
        for row in grid:
            keep = draw(st.integers(-1, cols - 1))
            row[:] = [x if j == keep else zero for j, x in enumerate(row)]
    return SparseMatrix.from_rows(grid)


@st.composite
def sums(draw, numerators=st.one_of(small, near_boundary), monomial_rows=False):
    rows, cols = (draw(st.integers(1, 3)) for _ in range(2))
    # each product draws its own inner size
    inners = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(0, 3)))]
    products = [(draw(coefficients),
                 draw(matrices(rows, inner, numerators, monomial_rows)),
                 draw(matrices(inner, cols, numerators)))
                for inner in inners]
    terms = [(draw(coefficients), draw(matrices(rows, cols, numerators)))
             for _ in range(draw(st.integers(0 if products else 1, 3)))]
    return rows, cols, products, terms


def reference(rows, cols, products, terms):
    """The same sum, one binary operation at a time."""
    cls = type((products or terms)[0][-1])
    total = cls.zeros(rows, cols)
    for c, left, right in products:
        total = total + (left @ right).scale(c)
    for d, m in terms:
        total = total + m.scale(d)
    return total


def assert_canonical(m):
    nums = m._re.tolist() + m._im.tolist()
    assert m._den > 0 and math.gcd(m._den, *nums) == 1
    assert m._amax == max(map(abs, nums), default=0)
    assert m._re.dtype == m._im.dtype
    assert m._re.dtype == np.int64 or m._amax >= 2**62
    assert ((m._re != 0) | (m._im != 0)).all()
    assert (np.diff(m._key) > 0).all()
    if not nums:
        assert m._den == 1


def as_float(rows, cols, products, terms):
    return (rows, cols, [(c, a.to_float(), b.to_float()) for c, a, b in products],
            [(d, m.to_float()) for d, m in terms])


@settings
@hypothesis.given(sums())
def test_exact_fused_sum_equals_the_loop(case):
    got = fused_sum(*case[2:])
    assert got == reference(*case)
    assert_canonical(got)


@settings
@hypothesis.given(sums(monomial_rows=True))
def test_left_operands_with_one_nonzero_per_row(case):
    got = fused_sum(*case[2:])
    assert got == reference(*case)
    assert_canonical(got)
    for c, left, right in case[2]:
        alone = fused_sum([(c, left, right)])
        assert alone == (left @ right).scale(c)
        assert_canonical(alone)


@settings
@hypothesis.given(sums(), st.data())
def test_equal_key_sums_cancel_to_exact_zero(case, data):
    rows, cols, products, terms = case
    c = data.draw(coefficients)
    negated = [(-d, m) for d, m in terms] + [(-1, m.scale(c)) for _, m in terms]
    zero = fused_sum(products + [(-x, a, b) for x, a, b in products],
                     terms + [(c, m) for _, m in terms] + negated)
    assert zero.is_zero() and zero._key.size == 0 and zero._den == 1
    # equal key arrays, partly cancelling: d M + d M - d M = d M
    for d, m in terms:
        twice = fused_sum(terms=[(d, m), (d, m), (-d, m)])
        assert twice == m.scale(d)
        assert_canonical(twice)


@settings
@hypothesis.given(sums(numerators=small))
def test_float_fused_sum_matches_the_loop(case):
    rows, cols, products, terms = as_float(*case)
    got = fused_sum(products, terms)
    assert isinstance(got, DenseMatrix)
    assert (got - reference(rows, cols, products, terms)).max_abs() <= FLOAT_TOL
    assert (got - fused_sum(*case[2:]).to_float()).max_abs() <= FLOAT_TOL


@pytest.mark.parametrize("a, b, count, dtype", [
    # 1 x 1 products: the bound is 2 a b per product, so count products
    # of a b = 2^60 reach 2^62 count, below 2^63 for count = 1
    (2**30, 2**30, 1, np.int64),
    (2**30, 2**30, 2, np.int64),   # bound 2^63: object, result 2^61 downcast
    (2**31, 2**31, 2, object),     # result 2^63: stays object
    (2**31 - 1, 2**31 + 1, 3, object),
])
def test_the_int64_bound_on_both_sides(a, b, count, dtype):
    left, right = SparseMatrix.from_rows([[a]]), SparseMatrix.from_rows([[b]])
    got = fused_sum([(1, left, right)] * count)
    assert got[0, 0] == count * a * b
    assert got._re.dtype == dtype
    assert_canonical(got)
    # an object-dtype operand below 2^62 gives the same canonical int64 result
    wide = SparseMatrix(1, 1, left._key, left._re.astype(object),
                        left._im.astype(object), left._den, left._amax)
    assert fused_sum([(1, wide, right)]) == left @ right
    assert_canonical(fused_sum([(1, wide, right)]))


def test_integer_and_unit_scales_are_canonical():
    m = SparseMatrix.from_rows([[Fraction(1, 6), ExactScalar(Fraction(5, 6), -1)],
                                [0, Fraction(-1, 4)]])
    for s in (2, 3, -12, 2**62, ExactScalar(0, 1), ExactScalar(0, -1), 0):
        got = m.scale(s)
        assert got == fused_sum(terms=[(Fraction(1), m), (ExactScalar.coerce(s) - 1, m)])
        assert_canonical(got)
    assert m.scale(12)._den == 1


def test_products_of_different_inner_sizes():
    # [L_1 L_2] @ [R_1; R_2] with inner sizes 1 and 3: R_2's keys are offset
    # by the inner size of L_1 alone
    a = SparseMatrix.from_rows([[1], [2]])
    b = SparseMatrix.from_rows([[1, 3]])
    c = SparseMatrix.from_rows([[1, 0, 2], [0, I, 1]])
    d = SparseMatrix.from_rows([[1, 0], [0, 1], [5, Fraction(7, 2)]])
    products = [(1, a, b), (Fraction(1, 3), c, d), (-I, a, b)]
    got = fused_sum(products)
    assert got == reference(2, 2, products, [])
    assert_canonical(got)
    floats = as_float(2, 2, products, [])
    assert (fused_sum(floats[2]) - reference(*floats)).max_abs() <= FLOAT_TOL


@settings
@hypothesis.given(sums(numerators=small))
def test_long_sums_are_expanded_in_chunks(case):
    # with a cap of 4 terms nearly every product is a chunk of its own, added
    # into a running total: exact results are still the canonical loop
    calls = []
    expand = exact._product_terms

    def counted(*args):
        calls.append(args[-1])
        return expand(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_TERM_CAP", 4)
        mp.setattr(exact, "_product_terms", counted)
        got = fused_sum(*case[2:])
        floats = as_float(*case)
        got_float = fused_sum(*floats[2:])
        working = [p for p in case[2] if p[0] != 0 and p[1]._key.size and p[2]._key.size]
        chunks = len(exact._chunks(working))
    assert got == reference(*case)
    assert_canonical(got)
    assert (got_float - reference(*floats)).max_abs() <= FLOAT_TOL
    # one expansion per chunk, in each backend
    assert len(calls) == 2 * chunks


def test_fused_sum_rejects_mixed_backends_and_shapes():
    a = SparseMatrix.identity(2)
    with pytest.raises(TypeError):
        fused_sum([(1, a, a)], [(1, a.to_float())])
    with pytest.raises(DimensionError):
        fused_sum([(1, a, a)], [(1, SparseMatrix.identity(3))])
    with pytest.raises(DimensionError):
        fused_sum([(1, a, SparseMatrix.zeros(3, 2))])
    with pytest.raises(DimensionError):
        fused_sum()
    assert fused_sum([(0, a, a)], [(1, SparseMatrix.zeros(2, 2))]) == \
        SparseMatrix.zeros(2, 2)


def test_operator_layers_sort_count(monkeypatch):
    # counts the stable sorts (_sum_duplicates) and the term expansions
    # (_product_terms) of the three layers at m = 3 exact: a guard, free of
    # timing, on the fused sums.  One binary operation at a time they made
    # 150 / 75, 310 / 126 and 518 / 282.
    world = build_world(build_clifford_model(3))
    calls = {"sorts": 0, "expansions": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(exact, "_sum_duplicates", counted("sorts", exact._sum_duplicates))
    monkeypatch.setattr(exact, "_product_terms", counted("expansions", exact._product_terms))

    def measured(fn, *args):
        calls.update(sorts=0, expansions=0)
        return fn(*args), (calls["sorts"], calls["expansions"])

    _, kaehler = measured(build_kaehler_operators, world.model, world.triple)
    assert kaehler[0] <= 4 and kaehler[1] <= 4
    _, calculus = measured(ProjectorCalculus, world)
    assert calculus[0] <= 32 and calculus[1] <= 26
    cert = certify_line_symmetry(world)
    rep, structure = measured(structure_report, world, cert)
    assert rep.ok
    assert structure[0] <= 29 and structure[1] <= 47
