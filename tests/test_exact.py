import random
from fractions import Fraction

import numpy as np
import pytest

from quatspin.errors import DimensionError, DomainError, SpectrumError
from quatspin.exact import (
    FLOAT_TOL,
    DenseMatrix,
    ExactScalar,
    SparseMatrix,
    column_space_basis,
    diagonal_eigenprojectors,
    fused_sum,
    lagrange_eigenprojectors,
    lagrange_projector,
)


def rand_scalar(rng, span=6):
    return ExactScalar(
        Fraction(rng.randint(-span, span), rng.randint(1, 4)),
        Fraction(rng.randint(-span, span), rng.randint(1, 4)),
    )


def rand_matrix(rng, rows, cols):
    return SparseMatrix.from_rows(
        [[rand_scalar(rng) for _ in range(cols)] for _ in range(rows)])


def test_scalar_field_axioms():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        if not b.is_zero():
            assert (a / b) * b == a
        assert (a * a.conjugate()).im == 0
        assert a.abs2() == (a * a.conjugate()).re


def test_scalar_int_interop():
    a = ExactScalar(Fraction(1, 2), 3)
    assert a + 1 == ExactScalar(Fraction(3, 2), 3)
    assert 2 * a == ExactScalar(1, 6)
    assert ExactScalar(5) == 5
    assert hash(ExactScalar(5)) == hash(5)
    assert str(ExactScalar(Fraction(1, 2), Fraction(-1, 3))) == "1/2-1/3i"
    with pytest.raises(ZeroDivisionError):
        a / ExactScalar(0)
    # exact parts only: a float is never rounded into a Fraction, nor a str parsed
    for re, im in ((0.1, 0), (0, 0.5), (1j, 0), ("1/3", 0)):
        with pytest.raises(TypeError):
            ExactScalar(re, im)


def test_identity_multiplication():
    rng = random.Random(1)
    m = rand_matrix(rng, 4, 4)
    assert SparseMatrix.identity(4) @ m == m
    assert m @ SparseMatrix.identity(4) == m


def test_symplectic_square():
    j = SparseMatrix.from_rows([[0, 1], [-1, 0]])
    assert j @ j == -SparseMatrix.identity(2)


def test_matmul_shape_error():
    # in both backends the operators are fused sums, which check the shapes
    for cls in (SparseMatrix, DenseMatrix):
        a = cls.zeros(2, 3)
        b = cls.zeros(2, 3)
        with pytest.raises(DimensionError):
            a @ b
        with pytest.raises(DimensionError):
            a + cls.zeros(3, 2)
        with pytest.raises(DimensionError):
            a - cls.zeros(3, 2)


def test_algebra_properties_random():
    rng = random.Random(11)
    for _ in range(25):
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        c = rand_matrix(rng, 3, 3)
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ (b + c) == a @ b + a @ c
        assert (a + b) @ c == a @ c + b @ c
        s = rand_scalar(rng)
        assert (a.scale(s)) @ b == (a @ b).scale(s)
        if not s.is_zero():
            assert a.scale(s).scale(ExactScalar(1) / s) == a


def test_common_denominator_normalization():
    m = SparseMatrix.from_rows([[Fraction(2, 4), Fraction(3, 6)]])
    n = SparseMatrix.from_rows([[Fraction(1, 2), Fraction(1, 2)]])
    assert m == n
    assert m[0, 0] == ExactScalar(Fraction(1, 2))


def test_big_integer_fallback():
    # entries large enough that one product overflows int64
    big = 2**40
    a = SparseMatrix.from_rows([[big, 0], [0, big]])
    sq = a @ a
    assert sq[0, 0] == ExactScalar(big * big)
    assert (sq - SparseMatrix.identity(2).scale(big * big)).is_zero()


def test_hermitian_and_trace():
    m = SparseMatrix.from_rows([[ExactScalar(1, 2), ExactScalar(0, -1)],
                                [ExactScalar(3), ExactScalar(Fraction(1, 3), 1)]])
    h = m.hermitian()
    assert h[0, 0] == ExactScalar(1, -2)
    assert h[0, 1] == ExactScalar(3)
    assert m.trace() == ExactScalar(Fraction(4, 3), 3)


def test_diagonal_eigenprojectors():
    d = SparseMatrix.from_rows([[1, 0], [0, -1]])
    projs = lagrange_eigenprojectors(d, [1, -1])
    assert projs[ExactScalar(1)] == SparseMatrix.from_rows([[1, 0], [0, 0]])
    assert projs[ExactScalar(-1)] == SparseMatrix.from_rows([[0, 0], [0, 1]])


def test_eigenprojectors_reject_duplicates():
    d = SparseMatrix.identity(2)
    with pytest.raises(DomainError):
        lagrange_eigenprojectors(d, [1, 1])


def test_eigenprojectors_certification_failure():
    d = SparseMatrix.from_rows([[1, 0], [0, 2]])
    with pytest.raises(SpectrumError):
        lagrange_eigenprojectors(d, [1, -1])


def test_eigenprojectors_reject_a_jordan_block():
    # (a - I)(a + I) != 0: the stated spectrum is right, but a is not
    # diagonalizable, and the eigen-equation certificate must catch it
    jordan = SparseMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(SpectrumError, match="eigen-equation"):
        lagrange_eigenprojectors(jordan, [1, -1])


def sequential_lagrange(a, lam, spectrum):
    """Reference: one scaled factor (a - mu I)/(lam - mu) at a time, in order."""
    lam = ExactScalar.coerce(lam)
    ident = type(a).identity(a.rows)
    p = ident
    for mu in map(ExactScalar.coerce, spectrum):
        if mu != lam:
            p = p @ (a - ident.scale(mu)).scale(1 / (lam - mu))
    return p


LAGRANGE_SPECTRA = [
    [3, 1, -1, -3],               # symmetric about 0, which it leaves out
    [2, 0, -2],                   # symmetric, with 0
    [4, 2, 0, -2, -4, 1],         # so(3)-like weights plus an unpaired value
    [Fraction(1, 2), Fraction(-1, 2), Fraction(5, 3)],
    [ExactScalar(0, 2), ExactScalar(0, -2), ExactScalar(1, 1),
     ExactScalar(-1, -1), 0],     # Gaussian values, as i(2m - 2k)
    [7],                          # lam alone: the identity
]


def test_lagrange_projector_matches_the_sequential_product():
    # the same polynomial in a for any a, certified or not, so exact equality
    # of the canonical forms holds on random matrices
    rng = random.Random(29)
    for spectrum in LAGRANGE_SPECTRA:
        for n in (1, 3, 4):
            a = rand_matrix(rng, n, n)
            for lam in spectrum:
                assert lagrange_projector(a, lam, spectrum) == \
                    sequential_lagrange(a, lam, spectrum), (spectrum, n, lam)


def test_lagrange_projector_float_matches_within_tolerance():
    # a float operator, its spectrum stated exactly as in the exact backend
    a = rand_matrix(random.Random(5), 4, 4).to_float()
    for spectrum in ([3, 1, -1, -3], LAGRANGE_SPECTRA[4]):
        for lam in spectrum:
            diff = (lagrange_projector(a, lam, spectrum)
                    - sequential_lagrange(a, lam, spectrum))
            assert diff.max_abs() <= FLOAT_TOL, (spectrum, lam)
    # a complex value is no stated spectrum, in either backend
    for b in (a, rand_matrix(random.Random(5), 4, 4)):
        with pytest.raises(TypeError):
            lagrange_projector(b, 2j, [2j, -2j])
        with pytest.raises(TypeError):
            lagrange_projector(b, 1, [1, 1j])


def test_paired_projectors_still_reject_a_jordan_block_and_a_wrong_spectrum():
    # the Jordan block on 1 breaks a P = 2 P
    jordan = SparseMatrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, -1]])
    with pytest.raises(SpectrumError, match="eigen-equation"):
        lagrange_eigenprojectors(jordan, [2, 1, -1])
    # the true spectrum {1, 3, -3} is not inside the stated {1, 2, -2}
    with pytest.raises(SpectrumError, match="eigen-equation"):
        lagrange_eigenprojectors(SparseMatrix.from_rows(
            [[1, 0, 0], [0, 3, 0], [0, 0, -3]]), [1, 2, -2])
    # a stated set that holds the spectrum certifies, and the projectors sum to I
    d = SparseMatrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 3]])
    projs = lagrange_eigenprojectors(d, [1, -1, 3, -3])
    total = SparseMatrix.zeros(3, 3)
    for p in projs.values():
        total = total + p
    assert total == SparseMatrix.identity(3)
    assert projs[ExactScalar(-3)].is_zero()


def _diagonalizable(rng, eigenvalues):
    """S D S^-1 for D = diag(eigenvalues) and S = I + N, N strictly upper
    triangular with small integers, so S^-1 = sum_j (-N)^j exactly."""
    n = len(eigenvalues)
    nil = SparseMatrix.from_rows(
        [[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)])
    ident = SparseMatrix.identity(n)
    inverse = power = ident
    for _ in range(n - 1):
        power = power @ -nil
        inverse = inverse + power
    d = SparseMatrix.from_rows(
        [[lam if j == i else 0 for j in range(n)] for i, lam in enumerate(eigenvalues)])
    return (ident + nil) @ d @ inverse


def _block_diagonal(blocks):
    n = sum(b.rows for b in blocks)
    rows, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                rows[at + i][at + j] = b[i, j]
        at += b.rows
    return SparseMatrix.from_rows(rows)


def _diagonal(values):
    return SparseMatrix.from_rows(
        [[v if j == i else 0 for j in range(len(values))] for i, v in enumerate(values)])


# the eigenvalues of the diagonal blocks of a block-diagonal operator
WITHIN_BLOCKS = [[3, 1, -1], [0, 1], [-2, 3, 0]]
WITHIN_SPECTRUM = [3, 1, -1, 0, -2]


def _sum(family):
    return fused_sum(terms=[(1, p) for p in family.values()])


def test_within_restricts_the_full_space_family():
    # W L_lam(a) is W times the full-space projector, for a 0/1 diagonal W
    # that is constant on each block and so commutes with a
    rng = random.Random(28)
    a = _block_diagonal([_diagonalizable(rng, ev) for ev in WITHIN_BLOCKS])
    full = lagrange_eigenprojectors(a, WITHIN_SPECTRUM)
    for keep in ((1, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (0, 0, 0)):
        w = _diagonal([bit for bit, ev in zip(keep, WITHIN_BLOCKS) for _ in ev])
        assert w @ a == a @ w
        within = lagrange_eigenprojectors(a, WITHIN_SPECTRUM, within=w)
        assert within == {lam: w @ p for lam, p in full.items()}, keep
        assert _sum(within) == w
        # the stated set need only hold the spectrum on the range of W
        inside = sorted({lam for bit, ev in zip(keep, WITHIN_BLOCKS) if bit for lam in ev})
        if inside:
            own = lagrange_eigenprojectors(a, inside, within=w)
            assert own == {lam: within[ExactScalar(lam)] for lam in inside}, keep
            assert _sum(own) == w


def test_within_rejects_a_noncommuting_projector_and_a_short_spectrum():
    rng = random.Random(28)
    a = _block_diagonal([_diagonalizable(rng, ev) for ev in WITHIN_BLOCKS])
    # a W that cuts the first block does not commute with a: with two or
    # more stated values the eigen-equations would give a W = W a
    cut = _diagonal([1, 0, 0, 0, 0, 0, 0, 0])
    assert cut @ a != a @ cut
    with pytest.raises(SpectrumError, match="eigen-equation"):
        lagrange_eigenprojectors(a, WITHIN_SPECTRUM, within=cut)
    # the second block holds 0 and 1, and 1 is not stated
    w = _diagonal([0, 0, 0, 1, 1, 0, 0, 0])
    with pytest.raises(SpectrumError, match="eigen-equation"):
        lagrange_eigenprojectors(a, [3, 0, -2], within=w)
    # an empty stated set certifies nothing
    with pytest.raises(DomainError):
        lagrange_eigenprojectors(a, [], within=w)


# a diagonal holding Gaussian rationals, repeats and unstored zeros; the
# stated value 7 is not taken, so its projector is zero
READ_DIAGONAL = [ExactScalar(0, 2), 0, Fraction(-1, 3), ExactScalar(0, 2), 0,
                 ExactScalar(Fraction(1, 2), -1), Fraction(-1, 3)]
READ_SPECTRUM = [7, ExactScalar(0, 2), Fraction(-1, 3), 0, ExactScalar(Fraction(1, 2), -1)]


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_diagonal_read_is_the_lagrange_family(kind):
    a = _diagonal(READ_DIAGONAL)
    if kind == "float":
        a = a.to_float()
    read = diagonal_eigenprojectors(a, READ_SPECTRUM)
    lagrange = lagrange_eigenprojectors(a, READ_SPECTRUM)
    assert list(read) == list(lagrange) == list(map(ExactScalar.coerce, READ_SPECTRUM))
    for lam, p in read.items():
        assert type(p) is type(a)
        if kind == "exact":
            assert p == lagrange[lam]
        else:
            assert (p - lagrange[lam]).max_abs() <= FLOAT_TOL
    assert read[ExactScalar(7)].is_zero()
    assert read[ExactScalar(0)].trace() == 2


def test_diagonal_read_compares_large_numerators_exactly():
    # numerators past int64 once cross-multiplied by the denominators
    big = 2**61 + 1
    a = _diagonal([Fraction(big, 3), Fraction(big - 1, 3), Fraction(big, 3)])
    read = diagonal_eigenprojectors(a, [Fraction(big, 3), Fraction(big - 1, 3)])
    assert read[ExactScalar(Fraction(big, 3))] == _diagonal([1, 0, 1])
    assert read[ExactScalar(Fraction(big - 1, 3))] == _diagonal([0, 1, 0])


def equal_to_cases():
    """(entries, scalar, cross) around the point where `_equal_to` leaves int64.

    The entries are numerators big, big - 1, -big and 1 over q, with one
    non-real entry, so the matrix holds int64 numerators with amax = big;
    the scalars are read over q or over 1.  Either way the larger cross
    product, amax q or max(|s_re|, |s_im|) den, is cross = big q, which lies
    just below, at or just above 2^63.  A last case has a small scalar
    numerator over a large q.
    """
    for q in (3, 4, 5, 7, 8):
        for big in (2**63 // q - 1, 2**63 // q, 2**63 // q + 1):
            entries = [ExactScalar(Fraction(n, q)) for n in (big, big - 1, -big, 1)]
            entries.append(ExactScalar(Fraction(big, q), Fraction(1, q)))
            scalars = [Fraction(big, q), Fraction(1 - big, q), ExactScalar(0, Fraction(big, q)),
                       ExactScalar(Fraction(big, q), Fraction(1, q))]
            for s in scalars:
                yield entries, s, big * q
            # small numerators over q against a scalar over 1
            for s in (big, ExactScalar(1, -big), ExactScalar(big, 1)):
                yield [ExactScalar(Fraction(n, q)) for n in (1, -2, q)], s, big * q
    # 3 q wraps in int64 to 5 = s_re den, so only the switch keeps 3 != 5/q
    q = (2**64 + 5) // 3
    yield [ExactScalar(3), ExactScalar(1)], Fraction(5, q), 3 * q


def test_equal_to_matches_fractions_across_the_int64_switch():
    sides = set()
    for entries, s, cross in equal_to_cases():
        a = SparseMatrix.from_rows([entries])
        assert a._re.dtype == np.int64
        want = [x == ExactScalar.coerce(s) for x in entries]  # Fraction parts
        assert a._equal_to(s).tolist() == want, (entries, s)
        sides.add((cross > 2**63) - (cross < 2**63))
    assert sides == {-1, 0, 1}
    # with no stored entry, a denominator past int64 is read as a Python int too
    zero = SparseMatrix.zeros(2, 2)
    assert zero._equal_to(Fraction(1, 2**64)).tolist() == []
    read = diagonal_eigenprojectors(zero, [0, Fraction(1, 2**64)])
    assert read[ExactScalar(0)] == SparseMatrix.identity(2)
    assert read[ExactScalar(Fraction(1, 2**64))].is_zero()


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_diagonal_read_names_what_it_rejects(kind):
    def backend(rows):
        a = SparseMatrix.from_rows(rows)
        return a if kind == "exact" else a.to_float()

    off = backend([[1, 0, 0], [0, 1, ExactScalar(0, 3)], [0, 0, -1]])
    with pytest.raises(SpectrumError, match=r"^matrix is not diagonal: entry \(1, 2\) is "):
        diagonal_eigenprojectors(off, [1, -1])
    unstated = backend([[1, 0, 0], [0, 2, 0], [0, 0, -1]])
    with pytest.raises(SpectrumError, match=r"^diagonal entry \(1, 1\) is \(?2"):
        diagonal_eigenprojectors(unstated, [1, -1])
    # an unstored diagonal position holds 0, which must be stated too
    zero = backend([[1, 0, 0], [0, 0, 0], [0, 0, -1]])
    with pytest.raises(SpectrumError, match=r"^diagonal entry \(1, 1\) is 0"):
        diagonal_eigenprojectors(zero, [1, -1])
    assert set(diagonal_eigenprojectors(zero, [1, 0, -1])) == {
        ExactScalar(1), ExactScalar(0), ExactScalar(-1)}
    with pytest.raises(DomainError):
        diagonal_eigenprojectors(zero, [1, 1])
    with pytest.raises(DimensionError):
        diagonal_eigenprojectors(backend([[1, 0]]), [1])


def test_scale_by_one_is_the_matrix_itself():
    # matrices are immutable, so a unit scale shares its operand
    a = SparseMatrix.from_rows([[ExactScalar(Fraction(1, 2), 1), 0], [3, 0]])
    for m in (a, a.to_float()):
        assert m.scale(1) is m
        assert m.scale(ExactScalar(1)) is m
    assert a.scale(Fraction(2, 2)) is a


def test_max_abs_is_the_largest_entry_modulus():
    # the maxima of |re| and |im| sit in different entries
    assert SparseMatrix.from_rows([[1, ExactScalar(0, 1)]]).max_abs() == 1.0
    assert SparseMatrix.from_rows(
        [[ExactScalar(Fraction(3, 2), -2), 1]]).max_abs() == 2.5
    # squares of these numerators overflow int64
    big = 2**31
    m = SparseMatrix.from_rows([[ExactScalar(3 * big, 4 * big), 1],
                                [ExactScalar(0, 4 * big + 1), 1]])
    assert m.max_abs() == 5.0 * big
    assert m.max_abs() == m.to_float().max_abs()


def test_eigenprojectors_nontrivial():
    # rank-1 projector pair for a non-diagonal involution
    m = SparseMatrix.from_rows([[0, 1], [1, 0]])
    projs = lagrange_eigenprojectors(m, [1, -1])
    p = projs[ExactScalar(1)]
    assert p == SparseMatrix.from_rows([[Fraction(1, 2), Fraction(1, 2)],
                                        [Fraction(1, 2), Fraction(1, 2)]])
    assert p.trace() == ExactScalar(1)


def test_eigenprojectors_float_backend():
    d = SparseMatrix.from_rows([[1, 0], [0, -1]]).to_float()
    projs = lagrange_eigenprojectors(d, [1, -1])
    # keyed by the exact stated values, as in the exact backend
    assert set(projs) == {ExactScalar(1), ExactScalar(-1)}
    p = projs[ExactScalar(1)]
    assert isinstance(p, DenseMatrix)
    assert (p - SparseMatrix.from_rows([[1, 0], [0, 0]]).to_float()).max_abs() <= 1e-12
    with pytest.raises(TypeError):
        lagrange_eigenprojectors(d, [1 + 0j, -1 + 0j])


def test_column_space_basis_exact():
    # second column is a multiple of the first, third independent
    m = SparseMatrix.from_rows([[1, 2, 0],
                                [2, 4, 1],
                                [3, 6, 0]])
    basis = column_space_basis(m)
    assert len(basis) == 2
    # reduced form: pivots normalized to 1, sorted by pivot position
    assert [b[0, 0] for b in basis] == [ExactScalar(1), ExactScalar(0)]
    assert basis[1][1, 0] == ExactScalar(1)
    # the original columns must be reproducible from the basis
    span = SparseMatrix.from_rows([[basis[j][i, 0] for j in range(2)]
                                   for i in range(3)])
    # column 0 = 1*b0 + 2*b1 + 3*... check via elimination residual instead
    col0 = SparseMatrix.from_rows([[1], [2], [3]])
    coeff = SparseMatrix.from_rows([[1], [2]])
    assert span @ coeff == col0


def test_column_space_basis_of_projector():
    p = SparseMatrix.from_rows([[Fraction(1, 2), Fraction(1, 2)],
                                [Fraction(1, 2), Fraction(1, 2)]])
    basis = column_space_basis(p)
    assert len(basis) == 1
    assert basis[0][0, 0] == ExactScalar(1)
    assert basis[0][1, 0] == ExactScalar(1)


def test_column_space_basis_takes_exact_matrices_only():
    with pytest.raises(TypeError, match="exact"):
        column_space_basis(SparseMatrix.from_rows([[1, 2], [2, 4]]).to_float())


def test_scaled_representation_invariance():
    rng = random.Random(3)
    m = rand_matrix(rng, 3, 3)
    scaled = m.scale(Fraction(7, 5)).scale(Fraction(5, 7))
    assert scaled == m
    assert m.fingerprint() == scaled.fingerprint()
    assert m.fingerprint() != (m + SparseMatrix.identity(3)).fingerprint()
    # the index bytes are hashed: the same value at another position differs
    one = SparseMatrix.from_rows([[1, 0], [0, 0]])
    moved = SparseMatrix.from_rows([[0, 1], [0, 0]])
    assert one._re.tobytes() == moved._re.tobytes()
    assert one.fingerprint() != moved.fingerprint()


def with_object_numerators(m):
    """The same matrix, its numerators held as object-dtype Python ints."""
    return SparseMatrix(m.rows, m.cols, m._key, m._re.astype(object),
                        m._im.astype(object), m._den, m._amax)


def test_fingerprint_reads_values_not_storage():
    m = rand_matrix(random.Random(4), 3, 4)
    assert m._re.dtype == np.int64
    assert with_object_numerators(m).fingerprint() == m.fingerprint()
    # unit numerators: 2^61 stays below the 2^62 limit of the int64 bytes,
    # and the second scale crosses it while the product still runs in int64
    unit = SparseMatrix.from_rows([[1, ExactScalar(0, -1), 0],
                                   [ExactScalar(1, 1), 0, -1]])
    half = unit.scale(2**61)
    big = half.scale(2)
    assert half._amax < 2**62 <= big._amax and big._re.dtype == np.int64
    assert big.fingerprint() == with_object_numerators(big).fingerprint()
    assert big.fingerprint() == unit.scale(2**62).fingerprint()
    assert big.fingerprint() != half.fingerprint()
    # numerators past 2^63 only fit object dtype
    huge = m.scale(2**62)
    assert huge._re.dtype == object
    assert huge.fingerprint() == m.scale(2**61).scale(2).fingerprint()
    assert huge.fingerprint() != m.fingerprint()


def test_complex_array_of_object_numerators_rounds_like_float():
    # numerators above 2^63 stay in object dtype; each must round as float(x)
    re = [[2**64 + 12345, -(2**70) - 1], [3, 2**63 + 1]]
    im = [[1, 2**65 + 7], [0, -5]]
    m = SparseMatrix.from_rows([[ExactScalar(Fraction(x, 7), Fraction(y, 7))
                                 for x, y in zip(rr, ri)] for rr, ri in zip(re, im)])
    assert m._re.dtype == object and m._den == 7

    def per_element(rows):
        return np.array([[float(x) for x in row] for row in rows])

    want = (per_element(re) + 1j * per_element(im)) / 7
    assert np.array_equal(m.to_float().to_complex_array(), want)


def test_float_backend_mirror():
    rng = random.Random(5)
    a = rand_matrix(rng, 3, 3)
    b = rand_matrix(rng, 3, 3)
    fa, fb = a.to_float(), b.to_float()
    assert isinstance(fa, DenseMatrix)
    prod = (a @ b).to_float()
    assert ((fa @ fb) - prod).max_abs() <= 1e-12
    assert (fa + fb - (a + b).to_float()).max_abs() <= 1e-12
    assert (fa.transpose() - a.transpose().to_float()).max_abs() <= 1e-12
    assert (fa.hermitian() - a.hermitian().to_float()).max_abs() <= 1e-12
    assert fa.max_abs() > 1e-12
