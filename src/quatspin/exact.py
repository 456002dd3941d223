"""Exact scalars, both matrix backends stored by their nonzeros, and spectral projectors.

`ExactScalar` is a Gaussian rational a + b*i with Fraction components.
Both matrix backends store the sorted linear indices of a matrix's nonzeros
and value arrays in the same order; the index arithmetic and shape checks
below serve both, and each backend supplies its value arithmetic.
`fused_sum` evaluates a sum of products and matrices with one term
expansion, one sort and one canonicalisation; a binary product, sum or
difference is its smallest case.  Callers hand exact scalars (int,
Fraction, ExactScalar) to both backends, and the float one converts them.

`SparseMatrix` is the one exact kernel: the spinor-space operators of the
Clifford layer, the 4m x 4m hyperkaehler triple, the 4m x 1 vectors and
so(3)'s (r+1) x (r+1) rationals are all held this way.  A spinor-space
operator is a sum of a few monomial matrices: a generator is a phase times
a permutation, and at m = 4 the Kaehler operators, the Kraines form and
every block projector keep at most 6 nonzeros in any row of 256.
`DenseMatrix` is the float backend, one complex128 value per nonzero with
tolerance-based zero tests.  A float matrix is only ever the `to_float`
image of an exact spinor-space operator, or the result of operations on
such images: the R^{4m} layer, the stated spectra and the so(3) generators
are exact in both backends.

An exact matrix keeps int64 or object (Python int) numerator arrays for
the real and imaginary parts of its nonzeros over one positive
denominator, in canonical form (`_canonical`): lowest terms, exact zeros
dropped, and int64 numerators whenever all lie below 2^62, so equal
matrices hold equal arrays and `fingerprint` hashes equal.  A product stays
int64 while 2 * cols * amax_a * amax_b < 2^63, where amax is the largest
numerator of an operand, and a fused sum while the same bounds, weighted by
its coefficients over one common denominator, add up to less than 2^63;
past that bound it runs on Python ints, as it does for an operand that
holds them.  Only numpy is used: importing scipy.sparse would cost more
than numpy itself in every run.

Spectral projectors come from one Lagrange product, certified by its
eigen-equation alone (see `lagrange_eigenprojectors`); it starts from a
projector commuting with the operator (by default the identity of the
matrix class), and the stated spectrum is exact.  A diagonal operator's
projectors are read off its diagonal instead, and certified the same way
(`diagonal_eigenprojectors`).

Float policy.  Exact arithmetic decides every check; the float backend only
cross-checks it, so its tolerances follow complex128 round-off and no caller
sets them.  A residual is zero at max |entry| <= FLOAT_TOL = 1e-10, over 3,000
times the largest residual of a passing float report row (2.8e-14 at m = 4).
A block constant matches within FLOAT_SCALAR_TOL = 1e-9, and the trace of an
N x N projector, which adds N rounded entries, lies within
max(FLOAT_TOL * N, FLOAT_SCALAR_TOL) of its rank.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

from .errors import DimensionError, DomainError, SpectrumError

FLOAT_TOL = 1e-10
FLOAT_SCALAR_TOL = 1e-9


class ExactScalar:
    """A Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError(f"ExactScalar parts must be int or Fraction, not "
                            f"{type(re).__name__} and {type(im).__name__}")
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @classmethod
    def coerce(cls, value):
        if isinstance(value, ExactScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to ExactScalar")

    @staticmethod
    def parts(value):
        """The (re, im) Fractions or ints of an exact entry; TypeError otherwise."""
        if isinstance(value, ExactScalar):
            return value.re, value.im
        if isinstance(value, (int, Fraction)):
            return value, 0
        raise TypeError(f"exact entries must be int, Fraction or ExactScalar, "
                        f"not {type(value).__name__}")

    def __add__(self, other):
        try:
            other = ExactScalar.coerce(other)
        except TypeError:
            return NotImplemented
        return ExactScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = ExactScalar.coerce(other)
        except TypeError:
            return NotImplemented
        return ExactScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return ExactScalar.coerce(other) - self

    def __mul__(self, other):
        try:
            other = ExactScalar.coerce(other)
        except TypeError:
            return NotImplemented
        return ExactScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ExactScalar.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero ExactScalar")
        return ExactScalar(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return ExactScalar.coerce(other) / self

    def __neg__(self):
        return ExactScalar(-self.re, -self.im)

    def conjugate(self):
        return ExactScalar(self.re, -self.im)

    def abs2(self):
        """Squared modulus, as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = ExactScalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # keep hash compatible with int/Fraction when purely real
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def to_complex(self):
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"ExactScalar({self.re!r}, {self.im!r})"


# ------------------------------------------------------ storage by nonzeros
# `_key` holds the sorted linear indices row * cols + col of the nonzeros.

_NO_KEYS = np.zeros(0, dtype=np.int64)


def _grid_shape(entries):
    """(rows, cols) of a list of rows; DimensionError if they are ragged."""
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    if any(len(r) != cols for r in entries):
        raise DimensionError("ragged rows")
    return rows, cols


def _product_terms(row, mid, b_key, inner, cols):
    """Terms (key, ia, ib) of a @ b, for a holding a nonzero.

    The nonzeros of a sit at (row, mid); b is inner x cols with sorted keys
    b_key.  Each nonzero a[i, t] meets row t of b: term q multiplies nonzero
    ia[q] of a by nonzero ib[q] of b, and adds to linear index key[q] of the
    product.
    """
    # row t of b holds b_key[start[t]:start[t + 1]]
    start = np.searchsorted(b_key, np.arange(0, (inner + 1) * cols, cols, dtype=np.int64))
    lo = start[mid]
    counts = start[mid + 1] - lo
    ends = np.cumsum(counts)
    ia = np.repeat(np.arange(row.size), counts)
    ib = np.arange(int(ends[-1])) + np.repeat(lo - (ends - counts), counts)
    return row[ia] * cols + b_key[ib] % cols, ia, ib


def _joined(arrays):
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _stacked_terms(products, cols, values):
    """The part (key, values(ia, ib), distinct) of sum_t L_t @ R_t, in one expansion.

    products holds (c, L, R) with L_t . x n_t and R_t n_t x cols, each
    holding a nonzero; the inner sizes n_t may differ.  The sum is
    [L_1 ... L_T] @ [R_1; ...; R_T]: with o_t = n_1 + ... + n_{t-1}, L_t's
    columns are offset by o_t and R_t's keys by o_t * cols, so the
    concatenated keys of the R_t stay sorted.  values(ia, ib) gives the
    term values from the indices ia and ib into the concatenated nonzeros
    of the L_t and of the R_t; the index arrays are dropped before the
    terms are summed.  distinct says the keys are already sorted and
    distinct: a single product whose left operand holds at most one nonzero
    per row, whose terms for row i are row t of R in order.
    """
    offset = 0
    rows, mids, r_keys = [], [], []
    for _, left, right in products:
        row, mid = np.divmod(left._key, left.cols)
        rows.append(row)
        mids.append(mid + offset if offset else mid)
        r_keys.append(right._key + offset * cols if offset else right._key)
        offset += left.cols
    row = _joined(rows)
    distinct = len(products) == 1 and bool((row[1:] != row[:-1]).all())
    key, ia, ib = _product_terms(row, _joined(mids), _joined(r_keys), offset, cols)
    return key, values(ia, ib), distinct


def _sum_duplicates(key, *values):
    """Sort by key and add up, in each value array, the values of equal keys."""
    if key.size == 0:
        return (key, *values)
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.empty(key.size, dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    first = new.nonzero()[0]
    return (key[first], *(np.add.reduceat(v[order], first) for v in values))


def _accumulate(parts):
    """(key, values, added): the sum of parts (key, values, distinct).

    values is a tuple of arrays in key order, and distinct says the part's
    keys are sorted and distinct.  A lone distinct part is returned as it
    is (added False: no sum was formed, so no value can have cancelled).
    Distinct parts with equal key arrays add their values in part order.
    Otherwise all parts are concatenated, in order, for one stable sort.
    """
    key, values, distinct = parts[0]
    if len(parts) == 1 and distinct:
        return key, values, False
    if distinct and all(d and np.array_equal(k, key) for k, _, d in parts[1:]):
        for _, more, _ in parts[1:]:
            values = tuple(x + y for x, y in zip(values, more))
        return key, values, True
    key, *values = _sum_duplicates(_joined([p[0] for p in parts]),
                                   *map(_joined, zip(*(p[1] for p in parts))))
    return key, tuple(values), True


def _transpose_order(m):
    """(key, order): the sorted keys of the transpose, and the value order."""
    row, col = np.divmod(m._key, max(m.cols, 1))
    key = col * m.rows + row
    order = np.argsort(key, kind="stable")
    return key[order], order


def _position(m, idx):
    """Position of entry idx = (i, j) among the stored values, None if zero."""
    i, j = idx
    if not (0 <= i < m.rows and 0 <= j < m.cols):
        raise IndexError(f"index ({i}, {j}) outside {m.rows}x{m.cols}")
    key = i * m.cols + j
    pos = int(np.searchsorted(m._key, key))
    return pos if pos < m._key.size and m._key[pos] == key else None


def _diagonal(m):
    """Mask of the stored values on the diagonal of a square matrix."""
    if m.rows != m.cols:
        raise DimensionError("trace of a non-square matrix")
    # key = i * (n + 1) exactly on the diagonal of an n x n matrix
    return m._key % (m.cols + 1) == 0


# expanded terms held at once by a fused sum of several products: about 6
# MB of exact term arrays.  Sums reach 4,096 terms at m = 4 and 20,480 at
# m = 5, and up to 673,792 at m = 7.
_TERM_CAP = 2**16


def _chunks(products):
    """products in consecutive runs of at most _TERM_CAP expanded terms.

    A product L @ R expands about nnz(L) nnz(R) / inner terms (exactly,
    when the rows of R hold equally many nonzeros); a single product above
    the cap makes a run of its own.
    """
    chunks, size = [], 0
    for p in products:
        _, a, b = p
        n = a._key.size * b._key.size // a.cols
        if not chunks or size + n > _TERM_CAP:
            chunks.append([])
            size = 0
        chunks[-1].append(p)
        size += n
    return chunks


def fused_sum(products=(), terms=()):
    """sum_t c_t L_t @ R_t + sum_s d_s M_s, with one term expansion, one
    stable sort and one canonicalisation.

    products holds (c, L, R) triples and terms (d, M) pairs, all matrices of
    one backend (TypeError otherwise) and of matching shapes
    (DimensionError otherwise); the inner sizes of the products may differ.
    Coefficients are exact scalars (int, Fraction, ExactScalar), or complex
    numbers in the float backend.  The terms of all products are expanded
    at once, as one product of stacked operands (`_stacked_terms`), and
    summed with the terms of the M_s.  Products expanding more than
    _TERM_CAP terms in all are split into runs (`_chunks`) added into a
    running total, so the terms held at once stay near the cap.  An exact
    result is the canonical matrix of the operation-by-operation sum; a
    float one adds the terms of each entry in stacked order (run by run
    past the cap), so it may round differently from a loop of binary
    operations.
    """
    operands = [x for _, a, b in products for x in (a, b)] + [m for _, m in terms]
    if not operands:
        raise DimensionError("an empty sum has no shape")
    cls = type(operands[0])
    if not all(isinstance(x, cls) for x in operands):
        raise TypeError("operands of a fused sum must share one backend")
    for _, a, b in products:
        if a.cols != b.rows:
            raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    shapes = {(a.rows, b.cols) for _, a, b in products} | {(m.rows, m.cols) for _, m in terms}
    if len(shapes) != 1:
        raise DimensionError(f"cannot add terms of shapes {sorted(shapes)}")
    (rows, cols), = shapes
    return cls._linear(rows, cols, products, terms)


def commutator(a, b, terms=()):
    """a b - b a + sum_s d_s M_s over terms (d_s, M_s), as one fused sum."""
    return fused_sum([(1, a, b), (-1, b, a)], terms)


class _Nonzeros:
    """Operator dispatch and the index arithmetic, common to both backends.

    A subclass holds rows, cols and `_key`, and supplies `zeros`,
    `unit_diagonal`, `scale` and the value arithmetic: `_fused` (a fused sum
    of operands that each hold a nonzero, with nonzero coefficients),
    `_transposed`, `_unit_phases` (which stored values are 1, -1, i or -i)
    and `_equal_to` (which stored values equal an exact scalar).  A product
    and a sum or difference are fused sums of one product or two terms,
    whose shapes `fused_sum` checks.  Mixing the backends raises TypeError.
    """

    __slots__ = ()

    @classmethod
    def identity(cls, n):
        return cls.unit_diagonal(n, np.arange(n, dtype=np.int64))

    @classmethod
    def _linear(cls, rows, cols, products, terms):
        """A fused sum, its zero operands and coefficients dropped first."""
        products = [(c, a, b) for c, a, b in products
                    if c != 0 and a._key.size and b._key.size]
        chunks = _chunks(products)
        if len(chunks) > 1:
            # a long sum is expanded a chunk at a time into a running total,
            # so the terms held at once stay near _TERM_CAP
            total = cls._linear(rows, cols, chunks[0], terms)
            for chunk in chunks[1:]:
                total = cls._linear(rows, cols, chunk, ((1, total),))
            return total
        terms = [(d, m) for d, m in terms if d != 0 and m._key.size]
        if products or len(terms) > 1:
            return cls._fused(rows, cols, products, terms)
        if terms:
            (d, m), = terms
            return m if d == 1 else m.scale(d)
        return cls.zeros(rows, cols)

    def __matmul__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return fused_sum([(1, self, other)])

    def _sum(self, other, sign):
        if not isinstance(other, type(self)):
            return NotImplemented
        return fused_sum(terms=[(1, self), (sign, other)])

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def transpose(self):
        return self._transposed(False)

    def hermitian(self):
        """Conjugate transpose."""
        return self._transposed(True)

    def unit_monomial_defect(self):
        """0 for a permutation matrix times phases in {1, -1, i, -i}.

        Otherwise a positive count: the stored entries outside those four
        phases, plus the rows and the columns that do not hold exactly one
        stored entry.  Judged exactly in both backends.
        """
        row, col = np.divmod(self._key, max(self.cols, 1))
        lines = sum(int(np.count_nonzero(np.bincount(idx, minlength=size) != 1))
                    for idx, size in ((row, self.rows), (col, self.cols)))
        return lines + int(np.count_nonzero(~self._unit_phases()))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        # the stored form is canonical: equal matrices hold equal arrays
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in self.__slots__)

    def __repr__(self):
        return (f"<{type(self).__name__} {self.rows}x{self.cols} {self.kind} "
                f"nnz={self._key.size}>")


def _complex(s):
    return s.to_complex() if isinstance(s, ExactScalar) else complex(s)


def _weighted_values(v, c):
    """Float values v times the coefficient c (v itself for c = 1)."""
    return v if c == 1 else v * _complex(c)


class DenseMatrix(_Nonzeros):
    """Immutable complex128 matrix, stored by its nonzeros: the float backend.

    Despite the name the storage is sparse, as in `SparseMatrix`: the sorted
    linear indices `_key` and one complex128 array `_v` of values.  Only
    exact zeros are dropped, so round-off residues stay stored and every zero
    test reads them against FLOAT_TOL.
    """

    __slots__ = ("rows", "cols", "_key", "_v")
    kind = "float"

    def __init__(self, rows, cols, key, v):
        keep = v != 0
        if not keep.all():
            key, v = key[keep], v[keep]
        self.rows, self.cols, self._key, self._v = rows, cols, key, v

    # ---------------------------------------------------------------- build

    @classmethod
    def unit_diagonal(cls, n, idx):
        """The n x n diagonal matrix with 1 at the sorted positions idx, 0 elsewhere."""
        return cls(n, n, idx * (n + 1), np.ones(idx.size, dtype=np.complex128))

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, _NO_KEYS, np.zeros(0, dtype=np.complex128))

    # ------------------------------------------------------------- interface

    @classmethod
    def _fused(cls, rows, cols, products, terms):
        parts = []
        if products:
            left = _joined([_weighted_values(a._v, c) for c, a, _ in products])
            right = _joined([b._v for _, _, b in products])
            parts.append(_stacked_terms(products, cols,
                                        lambda ia, ib: (left[ia] * right[ib],)))
        parts += [(m._key, (_weighted_values(m._v, d),), True) for d, m in terms]
        key, (v,), _ = _accumulate(parts)
        return cls(rows, cols, key, v)

    def __neg__(self):
        return DenseMatrix(self.rows, self.cols, self._key, -self._v)

    def scale(self, s):
        """Multiply by an exact scalar or a complex number."""
        if s == 1:
            return self
        return DenseMatrix(self.rows, self.cols, self._key, self._v * _complex(s))

    def is_zero(self):
        """Whether max |entry| is at most FLOAT_TOL."""
        return self.max_abs() <= FLOAT_TOL

    def max_abs(self):
        """Largest entry modulus (for residual reporting)."""
        return float(np.abs(self._v).max()) if self._v.size else 0.0

    def __getitem__(self, idx):
        pos = _position(self, idx)
        return 0j if pos is None else complex(self._v[pos])

    def trace(self):
        return complex(self._v[_diagonal(self)].sum())

    def _transposed(self, conjugate):
        key, order = _transpose_order(self)
        v = self._v[order]
        return DenseMatrix(self.cols, self.rows, key, v.conj() if conjugate else v)

    def _unit_phases(self):
        re, im = self._v.real, self._v.imag
        return ((re == 0) & (np.abs(im) == 1)) | ((im == 0) & (np.abs(re) == 1))

    def _equal_to(self, s):
        return np.abs(self._v - _complex(s)) <= FLOAT_SCALAR_TOL

    def to_complex_array(self):
        full = np.zeros(self.rows * self.cols, dtype=np.complex128)
        full[self._key] = self._v
        return full.reshape(self.rows, self.cols)

    def fingerprint(self):
        """Hash of the kind, shape, nonzero count and sorted linear indices, then
        the values as little-endian complex128, -0.0 as 0.0 (equal matrices hash equal)."""
        h = hashlib.sha256()
        h.update(f"{self.kind}:{self.rows}x{self.cols}:{self._key.size}:".encode())
        h.update(self._key.astype("<i8").tobytes())
        h.update((self._v + 0).astype("<c16").tobytes())
        return h.hexdigest()


# ------------------------------------ exact numerators over one denominator

# Stay strictly below signed-int64 range for any single sum of two products.
_INT64_LIMIT = 2**63
_DOWNCAST_LIMIT = 2**62


def _array_gcd(a):
    if a.dtype == object:
        return math.gcd(*a.tolist())
    return int(np.gcd.reduce(np.abs(a), initial=0))


def _array_max(a):
    if a.dtype == object:
        return max(map(abs, a.tolist()), default=0)
    return int(np.abs(a).max(initial=0))


def _as_object(a):
    return a if a.dtype == object else a.astype(object)


def _canonical(re, im, den):
    """Lowest terms (re, im, den, amax) of numerator arrays over den.

    The denominator is made positive and divided, with the numerators, by
    their common gcd; object-dtype numerators go back to int64 when every
    one lies below 2^62.  Every exact matrix keeps this form, so equal
    matrices hold equal arrays and hash equal.
    """
    if den < 0:
        re, im, den = -re, -im, -den
    # den = 1 is already in lowest terms; skip the scan of the numerators
    g = math.gcd(den, _array_gcd(re)) if den != 1 else 1
    if g != 1:
        g = math.gcd(g, _array_gcd(im))
    if g > 1:
        re = re // g
        im = im // g
        den //= g
    amax = max(_array_max(re), _array_max(im))
    if re.dtype == object and amax < _DOWNCAST_LIMIT:
        re = re.astype(np.int64)
        im = im.astype(np.int64)
    return re, im, den, amax


def _gaussian(c):
    """(re, im, q): an exact scalar as Gaussian-integer numerators over q > 0."""
    if isinstance(c, int):
        return c, 0, 1
    if isinstance(c, Fraction):
        return c.numerator, 0, c.denominator
    c = ExactScalar.coerce(c)
    re, im = c.re, c.im
    q = math.lcm(re.denominator, im.denominator)
    return re.numerator * (q // re.denominator), im.numerator * (q // im.denominator), q


def _weights(items):
    """Gaussian-integer weights of scalars c_t / den_t over one denominator.

    items holds (c_t, den_t, size_t) with c_t an exact scalar.  Returns
    (weights, den, bound): c_t / den_t = (wr_t + i wi_t) / den for
    (wr_t, wi_t) = weights[t], den the lcm of the q_t den_t, and bound =
    sum_t size_t (|wr_t| + |wi_t|).
    """
    gaussians = [(_gaussian(c), d, size) for c, d, size in items]
    den = math.lcm(*(q * d for (_, _, q), d, _ in gaussians))
    weights, bound = [], 0
    for (re, im, q), d, size in gaussians:
        f = den // (q * d)
        weights.append((re * f, im * f))
        bound += size * (abs(re) + abs(im)) * f
    return weights, den, bound


def _weighted(re, im, w, wide):
    """(re + i im) (wr + i wi) for w = (wr, wi), on object arrays when wide."""
    if wide:
        re, im = _as_object(re), _as_object(im)
    wr, wi = w
    if wi == 0:
        return (re, im) if wr == 1 else (re * wr, im * wr)
    if wr == 0:
        return -im * wi, re * wi
    return re * wr - im * wi, re * wi + im * wr


class SparseMatrix(_Nonzeros):
    """Immutable exact matrix over Gaussian rationals, stored by its nonzeros.

    Entry (i, j) is (re + i*im)/den at the position of key i * cols + j, and
    zero where no key is stored.
    """

    __slots__ = ("rows", "cols", "_key", "_re", "_im", "_den", "_amax")
    kind = "exact"

    def __init__(self, rows, cols, key, re, im, den, amax):
        self.rows, self.cols, self._key = rows, cols, key
        self._re, self._im, self._den, self._amax = re, im, den, amax

    # ---------------------------------------------------------------- build

    @classmethod
    def _normalized(cls, rows, cols, key, re, im, den, may_cancel=True):
        """The canonical matrix of the numerators over den; may_cancel False
        skips the zero mask when no numerator can be zero."""
        if may_cancel:
            keep = (re != 0) | (im != 0)
            if not keep.all():
                key, re, im = key[keep], re[keep], im[keep]
        re, im, den, amax = _canonical(re, im, den)
        return cls(rows, cols, key, re, im, den, amax)

    @classmethod
    def from_rows(cls, entries):
        """The matrix of a list of rows of int, Fraction or ExactScalar entries.

        Each numerator is the entry's numerator times den // its denominator,
        over den, the lcm of all denominators.  Ragged rows raise
        DimensionError; a float or complex entry raises TypeError.
        """
        rows, cols = _grid_shape(entries)
        key, res, ims = [], [], []
        for i, row in enumerate(entries):
            for j, v in enumerate(row):
                re, im = ExactScalar.parts(v)
                if re or im:
                    key.append(i * cols + j)
                    res.append(re)
                    ims.append(im)
        parts = res + ims
        den = math.lcm(*(x.denominator for x in parts))
        # a prime of den divides the denominator of some entry to its full
        # power, and then not that entry's numerator over den: lowest terms
        nums = [x.numerator * (den // x.denominator) for x in parts]
        amax = max(map(abs, nums), default=0)
        nums = np.array(nums, dtype=np.int64 if amax < _DOWNCAST_LIMIT else object)
        n = len(key)
        return cls(rows, cols, np.array(key, dtype=np.int64), nums[:n], nums[n:],
                   den, amax)

    @classmethod
    def monomial(cls, perm, re, im):
        """A phase times a permutation: row i holds re[i] + i*im[i] at column perm[i]."""
        n = len(perm)
        key = np.arange(n, dtype=np.int64) * n + np.asarray(perm, dtype=np.int64)
        return cls._normalized(n, n, key, np.asarray(re, dtype=np.int64),
                               np.asarray(im, dtype=np.int64), 1)

    @classmethod
    def unit_diagonal(cls, n, idx):
        """The n x n diagonal matrix with 1 at the sorted positions idx, 0 elsewhere."""
        return cls(n, n, idx * (n + 1), np.ones(idx.size, dtype=np.int64),
                   np.zeros(idx.size, dtype=np.int64), 1, 1 if idx.size else 0)

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, _NO_KEYS, _NO_KEYS, _NO_KEYS, 1, 0)

    # ------------------------------------------------------------- interface

    @classmethod
    def _fused(cls, rows, cols, products, terms):
        # every coefficient and denominator folds into Gaussian-integer
        # weights over one common denominator; the weights of the products
        # go onto their left operands.  A product term is bounded by
        # 2 inner amax_L amax_R and a plain one by amax_M, each times |w|,
        # and every partial sum by their total.  Below 2^63 int64 cannot
        # overflow; an object operand (amax >= 2^62) keeps object arithmetic.
        weights, den, bound = _weights(
            [(c, a._den * b._den, 2 * a.cols * a._amax * b._amax) for c, a, b in products]
            + [(d, m._den, m._amax) for d, m in terms])
        wide = bound >= _INT64_LIMIT
        parts = []
        if products:
            a_re, a_im = (_joined(x) for x in zip(*(
                _weighted(a._re, a._im, w, wide) for w, (_, a, _) in zip(weights, products))))
            b_re, b_im = (_joined(x) for x in zip(*(
                _weighted(b._re, b._im, (1, 0), wide) for _, _, b in products)))

            def values(ia, ib):
                ar, ai, br, bi = a_re[ia], a_im[ia], b_re[ib], b_im[ib]
                return ar * br - ai * bi, ar * bi + ai * br

            parts.append(_stacked_terms(products, cols, values))
        parts += [(m._key, _weighted(m._re, m._im, w, wide), True)
                  for w, (_, m) in zip(weights[len(products):], terms)]
        key, (re, im), added = _accumulate(parts)
        # without an addition every value is a product of nonzero Gaussian
        # integers, never zero
        return cls._normalized(rows, cols, key, re, im, den, may_cancel=added)

    def __neg__(self):
        return SparseMatrix(self.rows, self.cols, self._key, -self._re, -self._im,
                            self._den, self._amax)

    def scale(self, s):
        """Multiply by an exact scalar."""
        if s == 1:
            return self
        if self._amax == 0 or s == 0:
            return SparseMatrix.zeros(self.rows, self.cols)
        return SparseMatrix._fused(self.rows, self.cols, (), ((s, self),))

    def is_zero(self):
        """Exact zero test."""
        return self._amax == 0

    def max_abs(self):
        """Largest entry modulus as a float (for residual reporting)."""
        if self._amax == 0:
            return 0.0
        re, im = self._re, self._im
        if self._amax >= 2**31:  # re^2 + im^2 would overflow int64
            re, im = _as_object(re), _as_object(im)
        return math.sqrt(Fraction(int((re * re + im * im).max()), self._den ** 2))

    def __getitem__(self, idx):
        pos = _position(self, idx)
        if pos is None:
            return ExactScalar(0)
        return ExactScalar(Fraction(int(self._re[pos]), self._den),
                           Fraction(int(self._im[pos]), self._den))

    def trace(self):
        diag = _diagonal(self)
        return ExactScalar(Fraction(sum(self._re[diag].tolist()), self._den),
                           Fraction(sum(self._im[diag].tolist()), self._den))

    def _transposed(self, conjugate):
        key, order = _transpose_order(self)
        im = self._im[order]
        return SparseMatrix(self.cols, self.rows, key, self._re[order],
                            -im if conjugate else im, self._den, self._amax)

    def _unit_phases(self):
        # a Gaussian integer is a unit exactly when |re| + |im| = 1
        return (np.abs(self._re) + np.abs(self._im) == 1) & (self._den == 1)

    def _equal_to(self, s):
        # (re + i im) / den = (sr + i si) / q exactly when re q = sr den and
        # im q = si den; on Python ints when a side, or q itself, could pass
        # int64 (with no stored entry, amax = 0)
        sr, si, q = _gaussian(s)
        re, im = self._re, self._im
        if max(max(self._amax, 1) * q, max(abs(sr), abs(si)) * self._den) >= _INT64_LIMIT:
            re, im = _as_object(re), _as_object(im)
        return (re * q == sr * self._den) & (im * q == si * self._den)

    def numerators(self):
        """(den, {(i, j): (re, im)}): the nonzeros' Python-int numerators over den."""
        rows, cols = np.divmod(self._key, max(self.cols, 1))
        return self._den, dict(zip(zip(rows.tolist(), cols.tolist()),
                                   zip(self._re.tolist(), self._im.tolist())))

    def to_float(self):
        """The same matrix in the float backend (lossy for large numerators)."""
        v = (self._re.astype(np.float64) + 1j * self._im.astype(np.float64)) / self._den
        return DenseMatrix(self.rows, self.cols, self._key, v)

    def fingerprint(self):
        """Content hash of the canonical form: its nonzeros, not an N x N array.

        Hashes, in order, the kind, shape, denominator and nonzero count, the
        sorted linear indices, then the real and the imaginary numerators.
        Numerators are hashed as little-endian int64 bytes when all lie below
        2^62, else as comma-separated decimal strings, each closed by ";";
        either way equal matrices hash equal, whatever dtype holds them.
        """
        h = hashlib.sha256()
        h.update(f"{self.kind}:{self.rows}x{self.cols}:{self._den}:"
                 f"{self._key.size}:".encode())
        h.update(self._key.astype("<i8").tobytes())
        for arr in (self._re, self._im):
            if self._amax < _DOWNCAST_LIMIT:
                h.update(arr.astype("<i8").tobytes())
            else:
                h.update((",".join(map(str, arr.tolist())) + ";").encode())
        return h.hexdigest()


def lagrange_projector(a, lam, spectrum, within=None):
    """Uncertified Lagrange product W prod_{mu != lam} (a - mu*I)/(lam - mu).

    W = `within` is a projector commuting with `a` (I by default).  The
    result is the projector for lam on the range of W (W itself if lam is
    the only value) if the distinct values `spectrum` hold the whole
    spectrum of `a` there; certify_eigenprojector checks that.  The product
    starts from W, takes one factor at a time, p (a - mu I) as one fused
    sum, and is divided once by prod (lam - mu).  lam and the values are
    exact scalars (TypeError otherwise), in either backend.
    """
    lam = ExactScalar.coerce(lam)
    p = type(a).identity(a.rows) if within is None else within
    denominator = ExactScalar(1)
    for mu in map(ExactScalar.coerce, spectrum):
        if mu != lam:
            p = fused_sum([(1, p, a)], [(-mu, p)])
            denominator *= lam - mu
    return p.scale(1 / denominator)


def certify_eigenprojector(a, lam, p):
    """Raise SpectrumError unless a P = lam P (exactly, or to FLOAT_TOL for float)."""
    residual = fused_sum([(1, a, p)], [(-lam, p)])
    if not residual.is_zero():
        raise SpectrumError(
            f"eigen-equation fails for {lam} (residual {residual.max_abs():.3e})")


def _stated_values(a, spectrum):
    """The stated spectrum of the square matrix a as ExactScalar values."""
    if a.rows != a.cols:
        raise DimensionError("eigenprojectors need a square matrix")
    values = [ExactScalar.coerce(v) for v in spectrum]
    if not values or len(set(values)) != len(values):
        raise DomainError("a stated spectrum needs one or more pairwise distinct values")
    return values


def lagrange_eigenprojectors(a, spectrum, within=None):
    """Certified spectral projectors {lam: P_lam} for a stated spectrum.

    P_lam = W L_lam(a): L_lam is the Lagrange polynomial of lam over the
    stated values and W = `within` a projector commuting with `a` (I by
    default).  Each P_lam is certified by its eigen-equation
    (a - lam*I) P_lam = 0, i.e. W prod_mu (a - mu*I) = 0: on the range of
    W the spectrum of a lies in the stated one.  The rest follows.  The L_i
    sum to 1, so the P_i sum to W; L_i L_j (i != j) and L_i^2 - L_i are
    multiples of prod (x - mu), so the P_i are idempotent and pairwise
    orthogonal.  With two or more values the certificates give
    a W = sum lam P_lam = W a, so they fail for a W that does not commute
    with a.  Exact in the exact backend, to FLOAT_TOL in the float one; a
    failure raises SpectrumError with the residual.  The values are exact
    scalars (TypeError otherwise), one or more and pairwise distinct
    (DomainError otherwise), and key the projectors as ExactScalar.
    """
    values = _stated_values(a, spectrum)
    projectors = {}
    for lam in values:
        p = lagrange_projector(a, lam, values, within)
        certify_eigenprojector(a, lam, p)
        projectors[lam] = p
    return projectors


def diagonal_eigenprojectors(a, spectrum):
    """Certified spectral projectors {lam: P_lam} of a diagonal matrix, read
    off its diagonal with no Lagrange product.

    P_lam is the 0/1 diagonal on the positions where a's diagonal equals
    lam: exactly in the exact backend, within FLOAT_SCALAR_TOL in the float
    one, and a position with no stored value holds 0.  An entry off the
    diagonal that is not 0 (in the same sense), or a diagonal value that is
    not stated, raises SpectrumError naming the first.  Each P_lam is then
    certified by its eigen-equation a P_lam = lam P_lam.  The P_lam are 0/1
    diagonals on disjoint index sets that cover every position, so they are
    orthogonal idempotents summing to I, and a = sum lam P_lam: they are the
    spectral projectors of a, each the Lagrange polynomial of lam in a, as
    lagrange_eigenprojectors(a, spectrum) gives them.  The values are as
    there: exact scalars, one or more and pairwise distinct, keying the
    projectors as ExactScalar.
    """
    values = _stated_values(a, spectrum)
    n = a.rows
    on = _diagonal(a)
    off = np.flatnonzero(~on & ~a._equal_to(0))
    if off.size:
        i, j = divmod(int(a._key[off[0]]), n)
        raise SpectrumError(f"matrix is not diagonal: entry ({i}, {j}) is {a[i, j]}")
    # label[i]: the index of the stated value at diagonal position i, -1 for
    # none; an unstored position holds 0
    label = np.full(n, values.index(0) if 0 in values else -1)
    stored = a._key[on] // (n + 1)
    label[stored] = -1
    for t, lam in enumerate(values):
        label[stored[a._equal_to(lam)[on]]] = t
    missing = np.flatnonzero(label < 0)
    if missing.size:
        i = int(missing[0])
        raise SpectrumError(f"diagonal entry ({i}, {i}) is {a[i, i]}, not a stated value")
    projectors = {}
    for t, lam in enumerate(values):
        p = type(a).unit_diagonal(n, np.flatnonzero(label == t))
        certify_eigenprojector(a, lam, p)
        projectors[lam] = p
    return projectors


def column_space_basis(matrix):
    """Canonical basis of the column space of an exact matrix.

    Gaussian elimination over the Gaussian rationals with a
    first-nonzero-pivot rule, fully reduced, rows sorted by pivot position —
    a deterministic reduced basis of SparseMatrix columns.  A float matrix
    raises TypeError.
    """
    if not isinstance(matrix, SparseMatrix):
        raise TypeError(f"column_space_basis takes an exact matrix, not {matrix.kind}")
    zero = ExactScalar(0)
    basis = []  # list of (pivot_index, coefficients list)
    for j in range(matrix.cols):
        row = [matrix[i, j] for i in range(matrix.rows)]
        for piv, b in basis:
            c = row[piv]
            if c:
                row = [x - c * y for x, y in zip(row, b)]
        piv = next((idx for idx, x in enumerate(row) if x), None)
        if piv is None:
            continue
        inv = ExactScalar(1) / row[piv]
        row = [x * inv for x in row]
        for k, (p2, b2) in enumerate(basis):
            c = b2[piv]
            if c:
                basis[k] = (p2, [x - c * y for x, y in zip(b2, row)])
        basis.append((piv, row))
        basis.sort(key=lambda t: t[0])
    return [SparseMatrix.from_rows([[x] for x in b]) for _, b in basis]
