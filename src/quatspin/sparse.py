"""Exact matrices over Gaussian rationals, stored by their nonzeros.

`SparseMatrix` is the one exact kernel: the spinor-space operators of the
Clifford layer, the 4m x 4m hyperkaehler triple, the 4m x 1 vectors and
so(3)'s (r+1) x (r+1) rationals are all held this way.  The last three are
exact in the float backend too, whose matrices are only `to_float` images
of spinor-space operators and what is computed from them.  A spinor-space
operator is a sum of a few monomial matrices: a generator is a phase times
a permutation, and at m = 4 the Kaehler operators, the Kraines form and
every block projector keep at most 6 nonzeros in any row of 256.

A matrix stores the sorted linear indices of its nonzeros and int64 or
object (Python int) numerator arrays for their real and imaginary parts
over one positive denominator, kept in canonical form (`_canonical`):
lowest terms, exact zeros dropped, and int64 numerators whenever all lie
below 2^62, so equal matrices hold equal arrays and `fingerprint` hashes
equal.  The index arithmetic is shared with the float backend,
`quatspin.exact.DenseMatrix`; only the numerator arithmetic is here.  A
product stays int64 while 2 * cols * amax_a * amax_b < 2^63, where amax is
the largest numerator of an operand, and a fused sum (`exact.fused_sum`)
while the same bounds, weighted by its coefficients over one common
denominator, add up to less than 2^63; past that bound it runs on Python
ints, as it does for an operand that holds them.

Only numpy is used: importing scipy.sparse would cost more than numpy
itself in every run.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

from .exact import (DenseMatrix, ExactScalar, _accumulate, _diagonal, _grid_shape, _joined,
                    _NO_KEYS, _Nonzeros, _position, _stacked_terms, _transpose_order)

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


def _parts(v):
    """The (re, im) Fractions or ints of an exact entry; TypeError otherwise."""
    if isinstance(v, ExactScalar):
        return v.re, v.im
    if isinstance(v, (int, Fraction)):
        return v, 0
    raise TypeError(f"exact entries must be int, Fraction or ExactScalar, "
                    f"not {type(v).__name__}")


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
        # im q = si den; on Python ints when a side could pass int64
        sr, si, q = _gaussian(s)
        re, im = self._re, self._im
        if max(self._amax * q, max(abs(sr), abs(si)) * self._den) >= _INT64_LIMIT:
            re, im = _as_object(re), _as_object(im)
        return (re * q == sr * self._den) & (im * q == si * self._den)

    def numerators(self):
        """(den, {(i, j): (re, im)}): the nonzeros' Python-int numerators over den."""
        rows, cols = np.divmod(self._key, max(self.cols, 1))
        return self._den, dict(zip(zip(rows.tolist(), cols.tolist()),
                                   zip(self._re.tolist(), self._im.tolist())))

    def _scalars(self):
        if self._den == 1:
            return [ExactScalar(re, im)
                    for re, im in zip(self._re.tolist(), self._im.tolist())]
        return [ExactScalar(Fraction(re, self._den), Fraction(im, self._den))
                for re, im in zip(self._re.tolist(), self._im.tolist())]

    def frobenius_norm2(self):
        """Sum of squared entry moduli, as an exact Fraction."""
        total = sum(x * x for arr in (self._re, self._im) for x in arr.tolist())
        return Fraction(total, self._den ** 2)

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
