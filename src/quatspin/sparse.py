"""Sparse exact matrices over Gaussian rationals, for the Clifford layer.

Every spinor-space operator the Clifford layer forms is a sum of a few
monomial matrices: a generator is a phase times a permutation, and at m = 4
the Kaehler operators, the Kraines form and every block projector keep at
most 6 nonzeros in any row of 256.  A `SparseMatrix` stores only the
nonzeros: their sorted linear indices row * cols + col, and int64 or object
(Python int) numerator arrays for the real and imaginary parts over one
positive denominator.  It keeps the canonical form of the dense exact kind
(`exact._canonical`): lowest terms, and exact zeros dropped, so equal
matrices hold equal arrays, and `fingerprint` hashes the dense bytes a
matrix stands for, equal to `DenseMatrix.fingerprint` of the same matrix.

A product expands each nonzero A[i, t] against row t of B, then sums the
terms of equal index with one stable argsort and `np.add.reduceat`; a sum
concatenates the two operands and reduces the same way.  The choice of
int64 or object numerators uses the dense kind's bounds: a product stays
int64 while 2 * cols * amax_a * amax_b < 2^63, where amax is the largest
numerator of an operand, and every result with all numerators below 2^62
goes back to int64.

Only numpy is used: importing scipy.sparse would cost more than numpy
itself in every run.  The kind is always "exact"; the float backend stays
dense.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DimensionError, DomainError
from .exact import (
    _INT64_LIMIT,
    DenseMatrix,
    ExactScalar,
    _as_object,
    _canonical,
    _max_modulus,
)

_EMPTY = np.zeros(0, dtype=np.int64)


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
    SparseMatrix; mixing with DenseMatrix raises TypeError.
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
        """The nonzeros of DenseMatrix.from_rows(entries), same canonical form."""
        dense = DenseMatrix.from_rows(entries)
        re, im = dense._re.ravel(), dense._im.ravel()
        key = np.flatnonzero((re != 0) | (im != 0)).astype(np.int64)
        return cls(dense.rows, dense.cols, key, re[key], im[key],
                   dense._den, dense._amax)

    @classmethod
    def monomial(cls, perm, re, im):
        """A phase times a permutation: row i holds re[i] + i*im[i] at column perm[i]."""
        n = len(perm)
        key = np.arange(n, dtype=np.int64) * n + np.asarray(perm, dtype=np.int64)
        return cls._normalized(n, n, key, np.asarray(re, dtype=np.int64),
                               np.asarray(im, dtype=np.int64), 1)

    @classmethod
    def identity(cls, n, kind="exact"):
        if kind != "exact":
            raise DomainError(f"sparse storage is exact only, not {kind!r}")
        return cls(n, n, np.arange(n, dtype=np.int64) * (n + 1),
                   np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64), 1,
                   1 if n else 0)

    @classmethod
    def zeros(cls, rows, cols, kind="exact"):
        if kind != "exact":
            raise DomainError(f"sparse storage is exact only, not {kind!r}")
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
        """Exact zero test; tol is ignored, as in the dense exact kind."""
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

    def hermitian(self):
        """Conjugate transpose."""
        row, col = np.divmod(self._key, max(self.cols, 1))
        key = col * self.rows + row
        order = np.argsort(key, kind="stable")
        return SparseMatrix(self.cols, self.rows, key[order], self._re[order],
                            -self._im[order], self._den, self._amax)

    def to_dense(self):
        """The same matrix as an exact DenseMatrix (an N x N array)."""
        arrays = []
        for values in (self._re, self._im):
            full = np.zeros(self.rows * self.cols, dtype=values.dtype)
            full[self._key] = values
            arrays.append(full.reshape(self.rows, self.cols))
        return DenseMatrix(rows=self.rows, cols=self.cols, kind="exact",
                           re=arrays[0], im=arrays[1], den=self._den,
                           amax=self._amax)

    def fingerprint(self):
        """Content hash of the dense matrix this stands for (DenseMatrix.fingerprint)."""
        return self.to_dense().fingerprint()

    def __repr__(self):
        return f"<SparseMatrix {self.rows}x{self.cols} exact nnz={self._key.size}>"
