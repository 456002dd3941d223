"""Exact matrices over Gaussian rationals, stored by their nonzeros.

`SparseMatrix` is the one exact kernel: the spinor-space operators of the
Clifford layer, the 4m x 4m hyperkaehler triple, the 4m x 1 vectors and
so(3)'s (r+1) x (r+1) rationals are all held this way.  A spinor-space
operator is a sum of a few monomial matrices: a generator is a phase times
a permutation, and at m = 4 the Kaehler operators, the Kraines form and
every block projector keep at most 6 nonzeros in any row of 256.

A matrix stores the sorted linear indices row * cols + col of its nonzeros,
and int64 or object (Python int) numerator arrays for their real and
imaginary parts over one positive denominator.  Every matrix is kept in
canonical form (`_canonical`): lowest terms, exact zeros dropped, and int64
numerators whenever all lie below 2^62, so equal matrices hold equal arrays
and `fingerprint` hashes equal.

A product expands each nonzero A[i, t] against row t of B, then sums the
terms of equal index with one stable argsort and `np.add.reduceat`; a sum
concatenates the two operands and reduces the same way.  A product stays
int64 while 2 * cols * amax_a * amax_b < 2^63, where amax is the largest
numerator of an operand; past that bound, or with an object operand, it
runs on Python ints.

Only numpy is used: importing scipy.sparse would cost more than numpy
itself in every run.  The float backend is `quatspin.exact.DenseMatrix`;
`matrix_type` maps a backend name to its class.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

from .errors import DimensionError, DomainError
from .exact import DenseMatrix, ExactScalar

# Stay strictly below signed-int64 range for any single sum of two products.
_INT64_LIMIT = 2**63
_DOWNCAST_LIMIT = 2**62

_EMPTY = np.zeros(0, dtype=np.int64)


def _array_gcd(a):
    if a.size == 0:
        return 0
    if a.dtype == object:
        g = 0
        for x in a.tolist():
            g = math.gcd(g, x if x >= 0 else -x)
            if g == 1:
                return 1
        return g
    return int(np.gcd.reduce(np.abs(a), initial=0))


def _array_max(a):
    if a.size == 0:
        return 0
    if a.dtype == object:
        return max(abs(x) for x in a.tolist())
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


def _parts(v):
    """The (re, im) Fractions or ints of an exact entry; TypeError otherwise."""
    if isinstance(v, ExactScalar):
        return v.re, v.im
    if isinstance(v, (int, Fraction)):
        return v, 0
    raise TypeError(f"exact entries must be int, Fraction or ExactScalar, "
                    f"not {type(v).__name__}")


def _widened(bound, arrays):
    """The arrays as object dtype when bound reaches 2^63 or any is object."""
    if bound >= _INT64_LIMIT or any(a.dtype == object for a in arrays):
        return [_as_object(a) for a in arrays]
    return arrays


def _sum_duplicates(key, re, im):
    """Sort by key and add up the numerators of equal keys."""
    if key.size == 0:
        return key, re, im
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    return (key[first], np.add.reduceat(re[order], first),
            np.add.reduceat(im[order], first))


class SparseMatrix:
    """Immutable exact matrix over Gaussian rationals, stored by its nonzeros.

    Entry (i, j) is (re + i*im)/den at the position of key i * cols + j, and
    zero where no key is stored.  Operands of an operation must both be
    SparseMatrix; mixing with the float DenseMatrix raises TypeError.
    """

    __slots__ = ("rows", "cols", "_key", "_re", "_im", "_den", "_amax")
    kind = "exact"

    def __init__(self, rows, cols, key, re, im, den, amax):
        self.rows = rows
        self.cols = cols
        self._key = key
        self._re = re
        self._im = im
        self._den = den
        self._amax = amax

    # ---------------------------------------------------------------- build

    @classmethod
    def _normalized(cls, rows, cols, key, re, im, den):
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
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if any(len(r) != cols for r in entries):
            raise DimensionError("ragged rows")
        key, res, ims = [], [], []
        for i, row in enumerate(entries):
            for j, v in enumerate(row):
                re, im = _parts(v)
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
    def identity(cls, n):
        return cls(n, n, np.arange(n, dtype=np.int64) * (n + 1),
                   np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64), 1,
                   1 if n else 0)

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, _EMPTY, _EMPTY, _EMPTY, 1, 0)

    # ------------------------------------------------------------- interface

    def __matmul__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        rows, cols = self.rows, other.cols
        if self._amax == 0 or other._amax == 0:
            return SparseMatrix.zeros(rows, cols)
        bound = 2 * self.cols * self._amax * other._amax
        a_re, a_im, b_re, b_im = _widened(
            bound, [self._re, self._im, other._re, other._im])
        # row t of other holds other._key[start[t]:start[t + 1]]
        start = np.searchsorted(other._key,
                                np.arange(other.rows + 1, dtype=np.int64) * cols)
        row, mid = np.divmod(self._key, self.cols)
        counts = start[mid + 1] - start[mid]
        ends = np.cumsum(counts)
        # term q pairs nonzero ia[q] of self with nonzero ib[q] of other
        ia = np.repeat(np.arange(self._key.size), counts)
        ib = np.arange(int(ends[-1])) + np.repeat(start[mid] - (ends - counts), counts)
        key = row[ia] * cols + other._key[ib] % cols
        ar, ai, br, bi = a_re[ia], a_im[ia], b_re[ib], b_im[ib]
        key, re, im = _sum_duplicates(key, ar * br - ai * bi, ar * bi + ai * br)
        return SparseMatrix._normalized(rows, cols, key, re, im,
                                        self._den * other._den)

    def _combine(self, other, sign):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        den = math.lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        bound = max(self._amax, 1) * abs(sa) + max(other._amax, 1) * abs(sb)
        a_re, a_im, b_re, b_im = _widened(
            bound, [self._re, self._im, other._re, other._im])
        key, re, im = _sum_duplicates(np.concatenate((self._key, other._key)),
                                      np.concatenate((a_re * sa, b_re * sb)),
                                      np.concatenate((a_im * sa, b_im * sb)))
        return SparseMatrix._normalized(self.rows, self.cols, key, re, im, den)

    def __add__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        return SparseMatrix(self.rows, self.cols, self._key, -self._re, -self._im,
                            self._den, self._amax)

    def scale(self, s):
        """Multiply by an exact scalar."""
        s = ExactScalar.coerce(s)
        q = math.lcm(s.re.denominator, s.im.denominator)
        pr, pi = int(s.re * q), int(s.im * q)
        bound = max(self._amax, 1) * (abs(pr) + abs(pi))
        a_re, a_im = _widened(bound, [self._re, self._im])
        return SparseMatrix._normalized(self.rows, self.cols, self._key,
                                        a_re * pr - a_im * pi,
                                        a_re * pi + a_im * pr, self._den * q)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        # canonical form makes structural equality exact equality
        return (self.rows == other.rows and self.cols == other.cols
                and self._den == other._den
                and bool(np.array_equal(self._key, other._key))
                and bool(np.array_equal(self._re, other._re))
                and bool(np.array_equal(self._im, other._im)))

    def is_zero(self, tol=None):
        """Exact zero test; tol is ignored."""
        return self._amax == 0

    def max_abs(self):
        """Largest entry modulus as a float (for residual reporting)."""
        return _max_modulus(self._re, self._im, self._den, self._amax)

    def __getitem__(self, idx):
        i, j = idx
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) outside {self.rows}x{self.cols}")
        key = i * self.cols + j
        pos = int(np.searchsorted(self._key, key))
        if pos == self._key.size or self._key[pos] != key:
            return ExactScalar(0)
        return ExactScalar(Fraction(int(self._re[pos]), self._den),
                           Fraction(int(self._im[pos]), self._den))

    def trace(self):
        if self.rows != self.cols:
            raise DimensionError("trace of a non-square matrix")
        # key = i * (n + 1) exactly on the diagonal of an n x n matrix
        diag = self._key % (self.cols + 1) == 0
        return ExactScalar(Fraction(sum(self._re[diag].tolist()), self._den),
                           Fraction(sum(self._im[diag].tolist()), self._den))

    def _transposed(self, im):
        row, col = np.divmod(self._key, max(self.cols, 1))
        key = col * self.rows + row
        order = np.argsort(key, kind="stable")
        return SparseMatrix(self.cols, self.rows, key[order], self._re[order],
                            im[order], self._den, self._amax)

    def transpose(self):
        return self._transposed(self._im)

    def hermitian(self):
        """Conjugate transpose."""
        return self._transposed(-self._im)

    def frobenius_norm2(self):
        """Sum of squared entry moduli, as an exact Fraction."""
        total = sum(x * x for arr in (self._re, self._im) for x in arr.tolist())
        return Fraction(total, self._den ** 2)

    def to_float(self):
        """The same matrix in the float backend (lossy for large numerators)."""
        full = np.zeros(self.rows * self.cols, dtype=np.complex128)
        full[self._key] = (self._re.astype(np.float64)
                           + 1j * self._im.astype(np.float64)) / self._den
        return DenseMatrix(full.reshape(self.rows, self.cols))

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

    def __repr__(self):
        return f"<SparseMatrix {self.rows}x{self.cols} exact nnz={self._key.size}>"


_BACKENDS = {"exact": SparseMatrix, "float": DenseMatrix}


def matrix_type(kind):
    """The matrix class of a backend: SparseMatrix (exact) or DenseMatrix (float)."""
    try:
        return _BACKENDS[kind]
    except KeyError:
        raise DomainError(f"unknown backend kind {kind!r}") from None
