"""Exact scalars, storage by nonzeros, the float backend, and spectral projectors.

`ExactScalar` is a Gaussian rational a + b*i with Fraction components.
Both matrix backends store the sorted linear indices of a matrix's nonzeros
and value arrays in the same order; the index arithmetic and shape checks
below serve both, and each backend supplies its value arithmetic.  Every
exact matrix is a `quatspin.sparse.SparseMatrix`; `DenseMatrix` here is the
float backend, one complex128 value per nonzero with tolerance-based zero
tests.  `quatspin.sparse.matrix_type` maps a backend name to its class.

Spectral projectors come from one Lagrange product, certified by its
eigen-equation alone (see `lagrange_eigenprojectors`); the matrix class
supplies the identity it starts from.

Callers hand exact scalars (int, Fraction, ExactScalar) to both backends and
the float one converts them itself; `scalar_for` gives a backend's scalar
type where a value serves as a key.

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
from fractions import Fraction

import numpy as np

from .errors import DimensionError, DomainError, SpectrumError

FLOAT_TOL = 1e-10
FLOAT_SCALAR_TOL = 1e-9


class ExactScalar:
    """A Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @classmethod
    def coerce(cls, value):
        if isinstance(value, ExactScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to ExactScalar")

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


def _product_terms(a, b):
    """Terms (key, ia, ib) of a @ b, both operands holding a nonzero.

    Each nonzero a[i, t] meets row t of b: term q multiplies nonzero ia[q] of
    a by nonzero ib[q] of b, and adds to linear index key[q] of the product.
    """
    # row t of b holds b._key[start[t]:start[t + 1]]
    start = np.searchsorted(b._key, np.arange(b.rows + 1, dtype=np.int64) * b.cols)
    row, mid = np.divmod(a._key, a.cols)
    counts = start[mid + 1] - start[mid]
    ends = np.cumsum(counts)
    ia = np.repeat(np.arange(a._key.size), counts)
    ib = np.arange(int(ends[-1])) + np.repeat(start[mid] - (ends - counts), counts)
    return row[ia] * b.cols + b._key[ib] % b.cols, ia, ib


def _sum_duplicates(key, *values):
    """Sort by key and add up, in each value array, the values of equal keys."""
    if key.size == 0:
        return (key, *values)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    return (key[first], *(np.add.reduceat(v[order], first) for v in values))


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


class _Nonzeros:
    """Shape checks and operator dispatch, common to both backends.

    A subclass holds rows, cols and `_key`, and supplies `zeros` and the value
    arithmetic: `_product` (of operands that each hold a nonzero), `_combine`,
    `_transposed` and `_unit_phases` (which stored values are 1, -1, i or
    -i).  Mixing the backends raises TypeError.
    """

    __slots__ = ()

    def __matmul__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if not (self._key.size and other._key.size):
            return self.zeros(self.rows, other.cols)
        return self._product(other)

    def _sum(self, other, sign):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        return self._combine(other, sign)

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


class DenseMatrix(_Nonzeros):
    """Immutable complex128 matrix, stored by its nonzeros: the float backend.

    Despite the name the storage is sparse, as in `quatspin.sparse.SparseMatrix`:
    the sorted linear indices `_key` and one complex128 array `_v` of values.
    Only exact zeros are dropped, so round-off residues stay stored and every
    zero test reads them against FLOAT_TOL.
    """

    __slots__ = ("rows", "cols", "_key", "_v")
    kind = "float"

    def __init__(self, rows, cols, key, v):
        keep = v != 0
        self.rows, self.cols, self._key, self._v = rows, cols, key[keep], v[keep]

    # ---------------------------------------------------------------- build

    @classmethod
    def from_rows(cls, entries):
        rows, cols = _grid_shape(entries)
        v = np.array([x.to_complex() if isinstance(x, ExactScalar) else complex(x)
                      for r in entries for x in r], dtype=np.complex128)
        return cls(rows, cols, np.arange(v.size, dtype=np.int64), v)

    @classmethod
    def identity(cls, n):
        return cls(n, n, np.arange(n, dtype=np.int64) * (n + 1),
                   np.ones(n, dtype=np.complex128))

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, _NO_KEYS, np.zeros(0, dtype=np.complex128))

    # ------------------------------------------------------------- interface

    def _product(self, other):
        key, ia, ib = _product_terms(self, other)
        key, v = _sum_duplicates(key, self._v[ia] * other._v[ib])
        return DenseMatrix(self.rows, other.cols, key, v)

    def _combine(self, other, sign):
        key, v = _sum_duplicates(np.concatenate((self._key, other._key)),
                                 np.concatenate((self._v, sign * other._v)))
        return DenseMatrix(self.rows, self.cols, key, v)

    def __neg__(self):
        return DenseMatrix(self.rows, self.cols, self._key, -self._v)

    def scale(self, s):
        """Multiply by an exact scalar or a complex number."""
        s = s.to_complex() if isinstance(s, ExactScalar) else complex(s)
        return DenseMatrix(self.rows, self.cols, self._key, self._v * s)

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

    def frobenius_norm2(self):
        """Sum of squared entry moduli."""
        return float(np.sum(self._v.real ** 2 + self._v.imag ** 2))

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


def scalar_for(matrix, value):
    """Coerce a spectrum value to the matrix backend's scalar type."""
    if matrix.kind == "float":
        if isinstance(value, ExactScalar):
            return value.to_complex()
        return complex(value)
    return ExactScalar.coerce(value)


def lagrange_projector(a, lam, spectrum):
    """Uncertified Lagrange product prod_{mu != lam} (a - mu*I)/(lam - mu).

    The projector for lam (I if lam is the only value) if the distinct values
    `spectrum` hold the whole spectrum of `a`; certify_eigenprojector checks that.
    The product is formed unscaled and divided once by prod (lam - mu).  A
    pair +-mu of the other values enters as the one factor a^2 - mu^2 I, with
    a^2 formed once, since (a - mu I)(a + mu I) = a^2 - mu^2 I and polynomials
    in a commute.  The result is the same polynomial in a, so an exact result
    is the same canonical matrix; a symmetric spectrum of s values takes about
    s/2 products instead of s - 2.
    """
    lam = scalar_for(a, lam)
    ident = type(a).identity(a.rows)
    others = [mu for mu in (scalar_for(a, v) for v in spectrum) if mu != lam]
    factors, denominator, square = [], 1, None
    while others:
        mu = others.pop(0)
        if -mu in others:
            others.remove(-mu)
            square = a @ a if square is None else square
            factors.append(square - ident.scale(mu * mu))
            denominator *= lam * lam - mu * mu
        else:
            factors.append(a - ident.scale(mu))
            denominator *= lam - mu
    if not factors:
        return ident
    p = factors[0]
    for f in factors[1:]:
        p = p @ f
    return p.scale(1 / denominator)


def certify_eigenprojector(a, lam, p):
    """Raise SpectrumError unless a P = lam P (exactly, or to FLOAT_TOL for float)."""
    residual = a @ p - p.scale(lam)
    if not residual.is_zero():
        raise SpectrumError(
            f"eigen-equation fails for {lam} (residual {residual.max_abs():.3e})")


def lagrange_eigenprojectors(a, spectrum):
    """Certified spectral projectors {lam: P_lam} for a stated spectrum.

    Each Lagrange product P_lam is certified by its eigen-equation
    (a - lam*I) P_lam = 0, i.e. prod_mu (a - mu*I) = 0: the true spectrum lies
    in the stated one.  The rest follows.  The Lagrange polynomials L_i sum to
    1, so the P_i sum to I; L_i L_j (i != j) and L_i^2 - L_i vanish at every
    mu, so they are multiples of prod (x - mu): the P_i are idempotent and
    pairwise orthogonal.  Exact in the exact backend, to FLOAT_TOL in the float
    one; a failure raises SpectrumError with the residual.  The argument
    reads P_lam only as the polynomial L_lam(a), so the grouping of its
    factors (the pairs +-mu that `lagrange_projector` multiplies as
    a^2 - mu^2 I) and the one scale at the end change the work, not the
    matrix that is certified.
    """
    if a.rows != a.cols:
        raise DimensionError("eigenprojectors need a square matrix")
    values = [scalar_for(a, v) for v in spectrum]
    if len(set(values)) != len(values):
        raise DomainError("spectrum values must be pairwise distinct")
    projectors = {}
    for lam in values:
        p = lagrange_projector(a, lam, values)
        certify_eigenprojector(a, lam, p)
        projectors[lam] = p
    return projectors


def column_space_basis(matrix):
    """Canonical basis of the column space.

    Exact kind: Gaussian elimination over the Gaussian rationals with a
    first-nonzero-pivot rule, fully reduced, rows sorted by pivot position —
    a deterministic reduced basis of SparseMatrix columns.  Float kind:
    left singular vectors for singular values above FLOAT_TOL * max(rows, cols).
    """
    if matrix.kind == "float":
        if matrix.cols == 0:
            return []
        u, s, _ = np.linalg.svd(matrix.to_complex_array())
        cut = FLOAT_TOL * max(matrix.rows, matrix.cols)
        rank = int(np.sum(s > cut))
        return [DenseMatrix.from_rows(u[:, j:j + 1].tolist()) for j in range(rank)]
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
    return [type(matrix).from_rows([[x] for x in b]) for _, b in basis]
