"""Dense linear algebra over Gaussian rationals, exact by construction.

Matrices store a pair of integer numerator arrays (real and imaginary parts)
over a single positive integer denominator, so every operation reduces to
integer arithmetic.  A product picks its kernel from a magnitude bound on
every partial sum, 2 * cols * amax_a * amax_b, where amax is the largest
numerator of an operand.  Below 2^63 it is numpy's int64 matmul.  Above
that, or when an operand already holds object-dtype (arbitrary precision)
numerators, it is an object-dtype product.  A float backend with the same
surface (complex128, tolerance-based zero tests) exists for larger
experiments.

Only small operands reach the exact kind here: so(3)'s 11 x 11 rationals
and the 4m x 4m hyperkaehler triple.  The spinor-space operators of the
Clifford layer use `quatspin.sparse.SparseMatrix`, which keeps the same
canonical form (`_canonical`) on their nonzeros.

Spectral projectors come from one Lagrange product, certified by its
eigen-equation alone (see `lagrange_eigenprojectors`); both storages
supply the identity it starts from.

Callers hand exact scalars (int, Fraction, ExactScalar) to both kinds and
the float kind converts them itself, so this module is the only one that
knows each backend's scalar type; `scalar_for` gives that type where a value
serves as a key.  The exact kind ignores every `tol` argument, so callers
pass the same tolerance to both.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

from .errors import DimensionError, DomainError, SpectrumError

# Residual tolerance used by the float backend when none is supplied.
FLOAT_TOL = 1e-10

# Stay strictly below signed-int64 range for any single sum of two products.
_INT64_LIMIT = 2**63
_DOWNCAST_LIMIT = 2**62


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


def _array_gcd(a):
    if a.size == 0:
        return 0
    if a.dtype == object:
        g = 0
        for x in a.ravel().tolist():
            g = math.gcd(g, x if x >= 0 else -x)
            if g == 1:
                return 1
        return g
    return int(np.gcd.reduce(np.abs(a).ravel(), initial=0))


def _array_max(a):
    if a.size == 0:
        return 0
    if a.dtype == object:
        return max(abs(x) for x in a.ravel().tolist())
    return int(np.abs(a).max())


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


def _max_modulus(re, im, den, amax):
    """Largest |re + i im| / den over numerator arrays, as a float."""
    if amax == 0:
        return 0.0
    if amax >= 2**31:  # re^2 + im^2 would overflow int64
        re, im = _as_object(re), _as_object(im)
    return math.sqrt(Fraction(int((re * re + im * im).max()), den ** 2))


class DenseMatrix:
    """Immutable dense matrix over Gaussian rationals, or complex floats.

    The exact kind never rounds: entries are (re + i*im)/den with integer
    numerator arrays and a common positive denominator, gcd-normalized after
    every operation.  The float kind mirrors the same operations on a
    complex128 array and defers all zero tests to a tolerance.
    """

    __slots__ = ("rows", "cols", "kind", "_re", "_im", "_den", "_c", "_amax")

    def __init__(self, *, rows, cols, kind, re=None, im=None, den=1, c=None, amax=None):
        self.rows = rows
        self.cols = cols
        self.kind = kind
        self._re = re
        self._im = im
        self._den = den
        self._c = c
        if kind == "exact" and amax is None:
            amax = max(_array_max(re), _array_max(im))
        self._amax = amax

    # ---------------------------------------------------------------- build

    @staticmethod
    def _normalized(re, im, den, rows, cols):
        re, im, den, amax = _canonical(re, im, den)
        return DenseMatrix(rows=rows, cols=cols, kind="exact",
                           re=re, im=im, den=den, amax=amax)

    @classmethod
    def from_rows(cls, entries, kind="exact"):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if any(len(r) != cols for r in entries):
            raise DimensionError("ragged rows")
        if kind == "float":
            conv = [[v.to_complex() if isinstance(v, ExactScalar) else complex(v)
                     for v in r] for r in entries]
            return cls(rows=rows, cols=cols, kind="float",
                       c=np.array(conv, dtype=np.complex128).reshape(rows, cols))
        scalars = [[ExactScalar.coerce(v) for v in r] for r in entries]
        den = 1
        for r in scalars:
            for s in r:
                den = math.lcm(den, s.re.denominator, s.im.denominator)
        re = np.empty((rows, cols), dtype=object)
        im = np.empty((rows, cols), dtype=object)
        for i, r in enumerate(scalars):
            for j, s in enumerate(r):
                re[i, j] = int(s.re * den)
                im[i, j] = int(s.im * den)
        return cls._normalized(re, im, den, rows, cols)

    @classmethod
    def from_int_arrays(cls, re, im, den=1):
        """Wrap integer numerator arrays (shared denominator) without copying."""
        re = np.asarray(re)
        im = np.asarray(im)
        if re.shape != im.shape or re.ndim != 2:
            raise DimensionError("numerator arrays must share a 2-d shape")
        return cls._normalized(re, im, int(den), re.shape[0], re.shape[1])

    @classmethod
    def identity(cls, n, kind="exact"):
        if kind == "float":
            return cls(rows=n, cols=n, kind="float",
                       c=np.eye(n, dtype=np.complex128))
        return cls(rows=n, cols=n, kind="exact",
                   re=np.eye(n, dtype=np.int64), im=np.zeros((n, n), np.int64),
                   den=1, amax=1 if n else 0)

    @classmethod
    def zeros(cls, rows, cols, kind="exact"):
        if kind == "float":
            return cls(rows=rows, cols=cols, kind="float",
                       c=np.zeros((rows, cols), np.complex128))
        return cls(rows=rows, cols=cols, kind="exact",
                   re=np.zeros((rows, cols), np.int64),
                   im=np.zeros((rows, cols), np.int64), den=1, amax=0)

    # ------------------------------------------------------------- interface

    def _check_same_kind(self, other):
        if not isinstance(other, DenseMatrix):
            raise TypeError(f"expected DenseMatrix, got {type(other).__name__}")
        if self.kind != other.kind:
            raise TypeError("mixed exact/float operands")

    def __matmul__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        self._check_same_kind(other)
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if self.kind == "float":
            return DenseMatrix(rows=self.rows, cols=other.cols, kind="float",
                               c=self._c @ other._c)
        a_re, a_im, b_re, b_im = self._re, self._im, other._re, other._im
        bound = 2 * max(self.cols, 1) * self._amax * other._amax
        if bound >= _INT64_LIMIT or a_re.dtype == object or b_re.dtype == object:
            a_re, a_im = _as_object(a_re), _as_object(a_im)
            b_re, b_im = _as_object(b_re), _as_object(b_im)
        re = a_re @ b_re - a_im @ b_im
        im = a_re @ b_im + a_im @ b_re
        return DenseMatrix._normalized(re, im, self._den * other._den,
                                       self.rows, other.cols)

    def _combine(self, other, sign):
        self._check_same_kind(other)
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        if self.kind == "float":
            return DenseMatrix(rows=self.rows, cols=self.cols, kind="float",
                               c=self._c + sign * other._c)
        den = math.lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        a_re, a_im, b_re, b_im = self._re, self._im, other._re, other._im
        bound = max(self._amax, 1) * abs(sa) + max(other._amax, 1) * abs(sb)
        if bound >= _INT64_LIMIT or a_re.dtype == object or b_re.dtype == object:
            a_re, a_im = _as_object(a_re), _as_object(a_im)
            b_re, b_im = _as_object(b_re), _as_object(b_im)
        return DenseMatrix._normalized(a_re * sa + b_re * sb,
                                       a_im * sa + b_im * sb,
                                       den, self.rows, self.cols)

    def __add__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        if self.kind == "float":
            return DenseMatrix(rows=self.rows, cols=self.cols, kind="float", c=-self._c)
        return DenseMatrix(rows=self.rows, cols=self.cols, kind="exact",
                           re=-self._re, im=-self._im, den=self._den, amax=self._amax)

    def scale(self, s):
        """Multiply by an exact scalar in either kind (float also takes complex)."""
        if self.kind == "float":
            if isinstance(s, ExactScalar):
                s = s.to_complex()
            return DenseMatrix(rows=self.rows, cols=self.cols, kind="float",
                               c=self._c * complex(s))
        s = ExactScalar.coerce(s)
        q = math.lcm(s.re.denominator, s.im.denominator)
        pr, pi = int(s.re * q), int(s.im * q)
        a_re, a_im = self._re, self._im
        bound = max(self._amax, 1) * (abs(pr) + abs(pi))
        if bound >= _INT64_LIMIT or a_re.dtype == object:
            a_re, a_im = _as_object(a_re), _as_object(a_im)
        return DenseMatrix._normalized(a_re * pr - a_im * pi,
                                       a_re * pi + a_im * pr,
                                       self._den * q, self.rows, self.cols)

    def __mul__(self, s):
        if isinstance(s, DenseMatrix):
            return NotImplemented
        return self.scale(s)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.kind != other.kind or self.rows != other.rows or self.cols != other.cols:
            return False
        if self.kind == "float":
            return bool(np.array_equal(self._c, other._c))
        # canonical form makes structural equality exact equality
        return (self._den == other._den
                and bool(np.array_equal(self._re, other._re))
                and bool(np.array_equal(self._im, other._im)))

    def is_zero(self, tol=None):
        """Exact zero test; the float kind compares max |entry| against tol."""
        if self.kind == "float":
            if self._c.size == 0:
                return True
            return bool(np.abs(self._c).max() <= (FLOAT_TOL if tol is None else tol))
        return self._amax == 0

    def max_abs(self):
        """Largest entry modulus as a float (for residual reporting)."""
        if self.kind == "float":
            return float(np.abs(self._c).max()) if self._c.size else 0.0
        return _max_modulus(self._re, self._im, self._den, self._amax)

    def __getitem__(self, idx):
        i, j = idx
        if self.kind == "float":
            return complex(self._c[i, j])
        return ExactScalar(Fraction(int(self._re[i, j]), self._den),
                           Fraction(int(self._im[i, j]), self._den))

    def trace(self):
        if self.rows != self.cols:
            raise DimensionError("trace of a non-square matrix")
        if self.kind == "float":
            return complex(self._c.trace())
        return ExactScalar(Fraction(int(self._re.trace()), self._den),
                           Fraction(int(self._im.trace()), self._den))

    def transpose(self):
        if self.kind == "float":
            return DenseMatrix(rows=self.cols, cols=self.rows, kind="float",
                               c=self._c.T.copy())
        return DenseMatrix(rows=self.cols, cols=self.rows, kind="exact",
                           re=self._re.T.copy(), im=self._im.T.copy(),
                           den=self._den, amax=self._amax)

    def hermitian(self):
        """Conjugate transpose."""
        if self.kind == "float":
            return DenseMatrix(rows=self.cols, cols=self.rows, kind="float",
                               c=self._c.conj().T.copy())
        return DenseMatrix(rows=self.cols, cols=self.rows, kind="exact",
                           re=self._re.T.copy(), im=-self._im.T.copy(),
                           den=self._den, amax=self._amax)

    def frobenius_norm2(self):
        """Sum of squared entry moduli: Fraction (exact) or float."""
        if self.kind == "float":
            return float(np.sum(np.abs(self._c) ** 2))
        total = 0
        for arr in (self._re, self._im):
            flat = arr.ravel()
            if arr.dtype == object:
                total += sum(x * x for x in flat.tolist())
            else:
                total += int(np.dot(flat, flat)) if 2 * self.cols * self.rows * self._amax ** 2 < _INT64_LIMIT \
                    else sum(x * x for x in flat.tolist())
        return Fraction(total, self._den * self._den)

    def to_float(self):
        """Convert to the float backend (lossy for large numerators)."""
        if self.kind == "float":
            return self
        return DenseMatrix(rows=self.rows, cols=self.cols, kind="float",
                           c=self.to_complex_array())

    def to_complex_array(self):
        if self.kind == "float":
            return self._c.copy()
        return (self._re.astype(np.float64) + 1j * self._im.astype(np.float64)) \
            / self._den

    def fingerprint(self):
        """Content hash of the matrix data (canonical form).

        Numerators below 2^62 (the canonical int64 range) are hashed as their
        little-endian int64 bytes, larger ones as decimal strings; either way
        equal matrices hash equal, whatever dtype holds them.
        """
        h = hashlib.sha256()
        h.update(f"{self.kind}:{self.rows}x{self.cols}".encode())
        if self.kind == "float":
            h.update(self._c.tobytes())
            return h.hexdigest()
        h.update(str(self._den).encode())
        for arr in (self._re, self._im):
            if self._amax < _DOWNCAST_LIMIT:
                h.update(arr.astype("<i8").tobytes())
            else:
                h.update(",".join(map(str, arr.ravel().tolist())).encode())
        return h.hexdigest()

    def __repr__(self):
        return f"<DenseMatrix {self.rows}x{self.cols} {self.kind}>"


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
    ident = type(a).identity(a.rows, kind=a.kind)
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
    a deterministic reduced basis, in the storage of `matrix`.  Float kind:
    left singular vectors for singular values above tol.
    """
    if matrix.kind == "float":
        if matrix.cols == 0:
            return []
        u, s, _ = np.linalg.svd(matrix._c)
        cut = (FLOAT_TOL if tol is None else tol) * max(matrix.rows, matrix.cols)
        rank = int(np.sum(s > cut))
        return [DenseMatrix(rows=matrix.rows, cols=1, kind="float",
                            c=u[:, j:j + 1].copy()) for j in range(rank)]
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
