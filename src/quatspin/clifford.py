"""Concrete Clifford algebra models of R^{4m} acting on a 2^{2m}-dim spinor space.

Generators satisfy e_i e_j + e_j e_i = -2 delta_ij and are realized by the
iterated tensor construction Z x ... x Z x X x I x ... x I of 2m factors:
j diagonal sign factors Z = diag(1, -1), one of the two 2x2 blocks
A = [[0, i], [i, 0]] and B = [[0, 1], [-1, 0]] (each squares to -1) in
factor j, then identities.  Each is a phase times a permutation, so every
matrix entry lies in {0, +1, -1, +i, -i}.  Both backends build each one
by index arithmetic on the bits of the spinor index, as an exact
SparseMatrix; the float model converts it with `to_float`.  The generators
are the only place the backend enters: a model's kind is read off them, and
the vectors of R^{4m} are exact columns in both backends.  A model stores
m and its generators; the sizes n = 4m and 2^{2m} are read off m.
"""

from __future__ import annotations

import hashlib
import os
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError, ResourceLimitError
from .exact import ExactScalar, SparseMatrix, fused_sum

DEFAULT_MAX_M = 6
MAX_M_ENV = "QUATSPIN_MAX_M"


def resolved_max_m():
    """Effective model-size cap: the environment override, else 6."""
    env = os.environ.get(MAX_M_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"{MAX_M_ENV} must be an integer, got {env!r}") from None
    return DEFAULT_MAX_M


def _generator_pair(pairs, j):
    """The two generators with block A, then B, in tensor factor j of `pairs`.

    Tensor factor f acts on bit pairs - 1 - f of the spinor index x, so
    factor 0 is the most significant.  Both blocks flip bit j and send row x
    to column x ^ (1 << (pairs - 1 - j)).  The Z factors before it give the
    sign (-1)^(bits 0..j-1 of x); A adds the phase i, B the sign (-1)^(bit j).
    """
    x = np.arange(2 ** pairs, dtype=np.int64)

    def sign_of_bit(f):
        return 1 - 2 * ((x >> (pairs - 1 - f)) & 1)

    sign = np.ones_like(x)
    for f in range(j):
        sign *= sign_of_bit(f)
    perm = x ^ (1 << (pairs - 1 - j))
    zero = np.zeros_like(x)
    return (SparseMatrix.monomial(perm, zero, sign),
            SparseMatrix.monomial(perm, sign * sign_of_bit(j), zero))


class CliffordModel(NamedTuple):
    """A fixed matrix model: m and the 4m generators, whose backend is the model's."""

    m: int
    gamma: tuple

    @property
    def n(self):
        """The real dimension 4m of the vectors."""
        return 4 * self.m

    @property
    def spinor_dim(self):
        """The spinor dimension 2^{2m}."""
        return 2 ** (2 * self.m)

    @property
    def kind(self):
        """The backend of the generators: "exact" or "float"."""
        return self.gamma[0].kind

    def identity(self):
        """The spinor-space identity, in the model's backend."""
        return type(self.gamma[0]).identity(self.spinor_dim)

    def zeros(self):
        """The spinor-space zero, in the model's backend."""
        return type(self.gamma[0]).zeros(self.spinor_dim, self.spinor_dim)

    def content_hash(self):
        h = hashlib.sha256()
        h.update(f"clifford:m={self.m}:kind={self.kind}".encode())
        for g in self.gamma:
            h.update(g.fingerprint().encode())
        return h.hexdigest()


def build_clifford_model(m, kind="exact"):
    """Build the standard Clifford model for quaternionic dimension m.

    Raises DomainError for m < 1 and ResourceLimitError above the cap
    (default 6, overridable via the QUATSPIN_MAX_M environment variable).
    """
    if not isinstance(m, int) or m < 1:
        raise DomainError(f"quaternionic dimension must be a positive integer, got {m!r}")
    cap = resolved_max_m()
    if m > cap:
        raise ResourceLimitError(f"m={m} exceeds the cap {cap}; raise it via {MAX_M_ENV}")
    if kind not in ("exact", "float"):
        raise DomainError(f"unknown backend kind {kind!r}")
    pairs = 2 * m
    gammas = [g for j in range(pairs) for g in _generator_pair(pairs, j)]
    if kind == "float":
        gammas = [g.to_float() for g in gammas]
    return CliffordModel(m=m, gamma=tuple(gammas))


def corrupt_gamma(model, index):
    """Model with one generator sign-flipped (negative-control harness)."""
    if not 0 <= index < model.n:
        raise DomainError(f"generator index {index} out of range 0..{model.n - 1}")
    gammas = list(model.gamma)
    gammas[index] = -gammas[index]
    return model._replace(gamma=tuple(gammas))


def basis_vector(model, i):
    """The i-th (0-based) standard basis vector of R^{4m} as an exact column."""
    if not 0 <= i < model.n:
        raise DomainError(f"basis index {i} out of range 0..{model.n - 1}")
    return SparseMatrix.from_rows([[int(t == i)] for t in range(model.n)])


def _column(model, v):
    """v, checked to be an exact n x 1 column."""
    if not isinstance(v, SparseMatrix):
        raise TypeError(f"a vector of R^{{4m}} is an exact column, not {type(v).__name__}")
    if v.cols != 1 or v.rows != model.n:
        raise DimensionError(f"expected an {model.n}x1 coefficient column")
    return v


def _generator_sum(model, den, numerators):
    """sum_i ((re_i + i im_i) / den) gamma_i over numerators {i: (re_i, im_i)}."""
    terms = [(ExactScalar(Fraction(re, den), Fraction(im, den)), model.gamma[i])
             for i, (re, im) in numerators.items()]
    return fused_sum(terms=terms) if terms else model.zeros()


def vector_action(model, v):
    """Clifford action of a (complexified) vector on the spinor space.

    v is an exact n x 1 column (TypeError otherwise) in either backend; the
    result is sum_i v_i gamma_i, extended C-linearly in the coefficients,
    in the backend of the model's generators.
    """
    den, entries = _column(model, v).numerators()
    return _generator_sum(model, den, {i: c for (i, _), c in entries.items()})


def rotated_action(model, rotation, v):
    """vector_action(model, rotation @ v) for an exact n x n rotation, summing
    (rotation @ v)_i exactly over the nonzeros of both: no product is formed.
    The sums run on Gaussian-integer numerators; each coefficient is made
    exact once."""
    den_v, entries = _column(model, v).numerators()
    den_r, nonzeros = rotation.numerators()
    sums = {}
    # scan the positions of rotation's nonzeros; read only the entries v meets
    for (i, k), (a, b) in nonzeros.items():
        if (k, 0) in entries:
            c, d = entries[k, 0]
            re, im = sums.get(i, (0, 0))
            sums[i] = (re + a * c - b * d, im + a * d + b * c)
    return _generator_sum(model, den_r * den_v, sums)
