"""Exact scalars, the float backend, and certified spectral projectors.

`ExactScalar` is a Gaussian rational a + b*i with Fraction components.
Every exact matrix is a `quatspin.sparse.SparseMatrix`, the one exact
kernel; `DenseMatrix` here is the float backend, a complex128 array with
tolerance-based zero tests and the same surface.  `quatspin.sparse.matrix_type`
maps a backend name to its class.

Spectral projectors come from one Lagrange product, certified by its
eigen-equation alone (see `lagrange_eigenprojectors`); the matrix class
supplies the identity it starts from.

Callers hand exact scalars (int, Fraction, ExactScalar) to both backends and
the float one converts them itself; `scalar_for` gives a backend's scalar
type where a value serves as a key.  The exact backend ignores every `tol`
argument, so callers pass the same tolerance to both.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np

from .errors import DimensionError, DomainError, SpectrumError

# Residual tolerance used by the float backend when none is supplied.
FLOAT_TOL = 1e-10


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


class DenseMatrix:
    """Immutable dense complex128 matrix: the float backend.

    It offers the operations of the exact `quatspin.sparse.SparseMatrix` on
    one complex128 array and defers every zero test to a tolerance.
    """

    __slots__ = ("rows", "cols", "_c")
    kind = "float"

    def __init__(self, c):
        self.rows, self.cols = c.shape
        self._c = c

    # ---------------------------------------------------------------- build

    @classmethod
    def from_rows(cls, entries):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if any(len(r) != cols for r in entries):
            raise DimensionError("ragged rows")
        conv = [[v.to_complex() if isinstance(v, ExactScalar) else complex(v)
                 for v in r] for r in entries]
        return cls(np.array(conv, dtype=np.complex128).reshape(rows, cols))

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n, dtype=np.complex128))

    @classmethod
    def zeros(cls, rows, cols):
        return cls(np.zeros((rows, cols), np.complex128))

    # ------------------------------------------------------------- interface

    def __matmul__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return DenseMatrix(self._c @ other._c)

    def _combine(self, other, sign):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        return DenseMatrix(self._c + sign * other._c)

    def __add__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return DenseMatrix(-self._c)

    def scale(self, s):
        """Multiply by an exact scalar or a complex number."""
        if isinstance(s, ExactScalar):
            s = s.to_complex()
        return DenseMatrix(self._c * complex(s))

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and bool(np.array_equal(self._c, other._c)))

    def is_zero(self, tol=None):
        """Whether max |entry| is at most tol (FLOAT_TOL if None)."""
        if self._c.size == 0:
            return True
        return bool(np.abs(self._c).max() <= (FLOAT_TOL if tol is None else tol))

    def max_abs(self):
        """Largest entry modulus (for residual reporting)."""
        return float(np.abs(self._c).max()) if self._c.size else 0.0

    def __getitem__(self, idx):
        i, j = idx
        return complex(self._c[i, j])

    def trace(self):
        if self.rows != self.cols:
            raise DimensionError("trace of a non-square matrix")
        return complex(self._c.trace())

    def transpose(self):
        return DenseMatrix(self._c.T.copy())

    def hermitian(self):
        """Conjugate transpose."""
        return DenseMatrix(self._c.conj().T.copy())

    def frobenius_norm2(self):
        """Sum of squared entry moduli."""
        return float(np.sum(np.abs(self._c) ** 2))

    def to_float(self):
        return self

    def to_complex_array(self):
        return self._c.copy()

    def fingerprint(self):
        """Content hash of the kind, the shape and the complex128 bytes."""
        h = hashlib.sha256()
        h.update(f"{self.kind}:{self.rows}x{self.cols}".encode())
        h.update(self._c.tobytes())
        return h.hexdigest()

    def __repr__(self):
        return f"<DenseMatrix {self.rows}x{self.cols} float>"


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
    """
    lam = scalar_for(a, lam)
    ident = type(a).identity(a.rows)
    p = None
    for mu in (scalar_for(a, v) for v in spectrum):
        if mu != lam:
            f = (a - ident.scale(mu)).scale(1 / (lam - mu))
            p = f if p is None else p @ f
    return ident if p is None else p


def certify_eigenprojector(a, lam, p, tol=None):
    """Raise SpectrumError unless a P = lam P (exactly, or to tol for float)."""
    residual = a @ p - p.scale(lam)
    if not residual.is_zero(tol):
        raise SpectrumError(
            f"eigen-equation fails for {lam} (residual {residual.max_abs():.3e})")


def lagrange_eigenprojectors(a, spectrum, tol=None):
    """Certified spectral projectors {lam: P_lam} for a stated spectrum.

    Each Lagrange product P_lam is certified by its eigen-equation
    (a - lam*I) P_lam = 0, i.e. prod_mu (a - mu*I) = 0: the true spectrum lies
    in the stated one.  The rest follows.  The Lagrange polynomials L_i sum to
    1, so the P_i sum to I; L_i L_j (i != j) and L_i^2 - L_i vanish at every
    mu, so they are multiples of prod (x - mu): the P_i are idempotent and
    pairwise orthogonal.  Exact in the exact backend, to `tol` in the float
    one; a failure raises SpectrumError with the residual.
    """
    if a.rows != a.cols:
        raise DimensionError("eigenprojectors need a square matrix")
    values = [scalar_for(a, v) for v in spectrum]
    if len(set(values)) != len(values):
        raise DomainError("spectrum values must be pairwise distinct")
    projectors = {}
    for lam in values:
        p = lagrange_projector(a, lam, values)
        certify_eigenprojector(a, lam, p, tol)
        projectors[lam] = p
    return projectors


def column_space_basis(matrix, tol=None):
    """Canonical basis of the column space.

    Exact kind: Gaussian elimination over the Gaussian rationals with a
    first-nonzero-pivot rule, fully reduced, rows sorted by pivot position —
    a deterministic reduced basis of SparseMatrix columns.  Float kind:
    left singular vectors for singular values above tol.
    """
    if matrix.kind == "float":
        if matrix.cols == 0:
            return []
        u, s, _ = np.linalg.svd(matrix._c)
        cut = (FLOAT_TOL if tol is None else tol) * max(matrix.rows, matrix.cols)
        rank = int(np.sum(s > cut))
        return [DenseMatrix(u[:, j:j + 1].copy()) for j in range(rank)]
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
