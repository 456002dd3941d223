"""Integer-highest-weight irreducible representations of so(3).

Builds, for each nonnegative integer r, the (r+1)-dimensional irreducible
representation in a weight basis where the distinguished generator H1 is
diagonal with spectrum {r, r-2, ..., -r}.  The companions H2 = X + Y and
H3 = -i(X - Y) come from the integer ladder normalization, and the triple
satisfies [H_a, H_b] = 2i eps_abc H_c exactly.

A rotation g acts on the generator span through its first row:
g^{-1}H1 = sum_b g_{0b} H_{b+1}.  The module extracts the component of a
vector in the top-eigenvalue eigenspace of such a rotated generator and
searches, by seeded uniform rotation sampling, for a rotation under which
that component is nonzero.  Exact mode uses rational rotation matrices
built from integer quaternions so that zero tests stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionError, DomainError, SpectrumError
from .exact import (
    FLOAT_TOL,
    ExactScalar,
    certify_eigenprojector,
    lagrange_projector,
)
from .quaternionic import epsilon
from .report import VerificationReport, residual_entry
from .sparse import SparseMatrix, _parts, matrix_type

_FIXED_QUATERNIONS = ((1, 2, 2, 0), (2, 3, 6, 0), (1, 1, 1, 1))

# A float search accepts a top-weight component of magnitude above this.
TOP_COMPONENT_THRESHOLD = 1e-8


# --------------------------------------------------------------------- irreps


@dataclass(frozen=True)
class Irrep:
    """Irreducible representation of highest weight r on C^{r+1}.

    `h` holds the three generators; indexing is 1-based to match the
    subscripts H1, H2, H3.
    """

    r: int
    dim: int
    kind: str
    h: tuple

    def __getitem__(self, a):
        if a not in (1, 2, 3):
            raise DomainError(f"generator index must be 1, 2 or 3, got {a}")
        return self.h[a - 1]

    def weights(self):
        """H1 eigenvalues from highest to lowest: r, r-2, ..., -r."""
        return [self.r - 2 * s for s in range(self.dim)]


def _ladder(r, kind="exact"):
    """Raising/lowering pair: X v_s = s(r-s+1) v_{s-1}, Y v_s = v_{s+1}."""
    n = r + 1
    x = [[0] * n for _ in range(n)]
    y = [[0] * n for _ in range(n)]
    for s in range(1, n):
        x[s - 1][s] = s * (r - s + 1)
        y[s][s - 1] = 1
    cls = matrix_type(kind)
    return cls.from_rows(x), cls.from_rows(y)


def build_irrep(r, kind="exact"):
    """Construct the highest-weight-r irreducible so(3) representation."""
    if not isinstance(r, int) or r < 0:
        raise DomainError(f"highest weight must be a nonnegative integer, got {r}")
    cls = matrix_type(kind)
    n = r + 1
    h1 = cls.from_rows(
        [[r - 2 * s if s == t else 0 for t in range(n)] for s in range(n)])
    x, y = _ladder(r, kind)
    h2 = x + y
    h3 = (x - y).scale(ExactScalar(0, -1))
    return Irrep(r=r, dim=n, kind=kind, h=(h1, h2, h3))


# ------------------------------------------------------------------ rotations


@dataclass(frozen=True)
class Rotation:
    """3x3 special-orthogonal matrix; exact entries are Fractions."""

    entries: tuple
    kind: str

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]


def rotation_from_quaternion(w, x, y, z, kind="exact"):
    """Rotation represented by the (not necessarily unit) quaternion w+xi+yj+zk.

    The homogeneous form divides by the squared norm, so integer or rational
    components yield an exactly rational rotation matrix.
    """
    conv = Fraction if kind == "exact" else float
    w, x, y, z = conv(w), conv(x), conv(y), conv(z)
    n = w * w + x * x + y * y + z * z
    if n == 0:
        raise DomainError("zero quaternion does not define a rotation")
    rows = (
        (w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z),
    )
    return Rotation(tuple(tuple(v / n for v in row) for row in rows), kind)


def identity_rotation(kind="exact"):
    one, zero = (Fraction(1), Fraction(0)) if kind == "exact" else (1.0, 0.0)
    return Rotation(((one, zero, zero), (zero, one, zero), (zero, zero, one)), kind)


def _rotation_defect(g):
    """Orthogonality and determinant defects, in the rotation's arithmetic.

    The entries are read as N / d over a common denominator d (d = 1 for the
    float kind), so the defects are max |sum_k N_ki N_kj - delta_ij d^2| / d^2
    and |det N - d^3| / d^3, with the numerators in integer arithmetic for the
    exact kind.
    """
    e, d, conv = g.entries, 1, float
    if g.kind == "exact":
        d, conv = math.lcm(*(v.denominator for row in e for v in row)), Fraction
        e = [[v.numerator * (d // v.denominator) for v in row] for row in e]
    dev = max(abs(sum(e[k][i] * e[k][j] for k in range(3)) - (d * d if i == j else 0))
              for i in range(3) for j in range(3))
    det = (e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
           - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
           + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0]))
    return conv(dev) / d ** 2, conv(abs(det - d ** 3)) / d ** 3


def check_rotation(g):
    """Certify R^T R = I and det R = 1 (exactly for the exact kind)."""
    dev, ddet = _rotation_defect(g)
    limit = 0 if g.kind == "exact" else FLOAT_TOL
    if dev > limit or ddet > limit:
        raise DomainError(
            "not a special orthogonal matrix "
            f"(orthogonality defect {float(dev):.3e}, det defect {float(ddet):.3e})")


def random_rotation(rng, kind="float"):
    """Uniform (Haar) rotation from a random quaternion.

    Float: four standard normals (the normalized quaternion is uniform on the
    3-sphere).  Exact: small nonzero integer quaternion, giving a rational
    rotation matrix; the distribution is a dense finite grid rather than Haar.
    """
    while True:
        if kind == "float":
            q = rng.standard_normal(4)
            if float(np.abs(q).max()) > 1e-12:
                return rotation_from_quaternion(*q, kind="float")
        else:
            q = rng.integers(-9, 10, size=4)
            if any(int(v) != 0 for v in q):
                return rotation_from_quaternion(*(int(v) for v in q), kind="exact")


# -------------------------------------------------- rotated generator algebra


def rotated_generator(irrep, g):
    """Image of H1 under the rotation: sum_b g_{0b} H_{b+1}.

    Same spectrum as H1 for any valid rotation.  The rotation and the
    representation must use the same backend; TypeError otherwise.
    """
    check_rotation(g)
    if g.kind != irrep.kind:
        raise TypeError(
            f"{g.kind} rotation does not match the {irrep.kind} irrep backend")
    h1, h2, h3 = irrep.h
    return h1.scale(g[0, 0]) + h2.scale(g[0, 1]) + h3.scale(g[0, 2])


def top_weight_projector(irrep, generator):
    """Projector onto the top-eigenvalue (= r) eigenspace of the generator.

    The Lagrange product over the known spectrum {r, r-2, ..., -r}.  Exact
    kind: certified by its eigen-equation, which certifies the whole stated
    spectrum; raises SpectrumError otherwise.  Float kind: uncertified, since
    rounding in a random rotation can leave a residual above FLOAT_TOL.
    """
    p = lagrange_projector(generator, irrep.r, irrep.weights())
    if generator.kind == "exact":
        certify_eigenprojector(generator, irrep.r, p)
    return p


def _entry_parts(kind, x):
    """(re, im) of a coordinate in the backend's arithmetic; TypeError otherwise."""
    if kind == "exact":
        return _parts(x)
    z = x.to_complex() if isinstance(x, ExactScalar) else complex(x)
    return z.real, z.imag


def _vector(irrep, v):
    """A nonzero vector of the irrep's dimension, as a backend column or a list.

    A column is checked on its shape, a coordinate sequence on its length and
    its entries, with no column built.  Raises DimensionError for a wrong
    shape or length, DomainError for the zero vector, and TypeError for a
    column or an entry the irrep's backend does not take.
    """
    cls = matrix_type(irrep.kind)
    if isinstance(v, cls):
        if v.rows != irrep.dim or v.cols != 1:
            raise DimensionError(
                f"expected a {irrep.dim}x1 column, got {v.rows}x{v.cols}")
        nonzero = v.max_abs() != 0
    elif hasattr(v, "kind"):
        raise TypeError("column backend does not match the irrep backend")
    else:
        v = list(v)
        if len(v) != irrep.dim:
            raise DimensionError(f"expected {irrep.dim} coordinates, got {len(v)}")
        # a list, not a generator: every entry is read, so a wrong type raises
        nonzero = any([re or im for re, im in (_entry_parts(irrep.kind, x) for x in v)])
    if not nonzero:
        raise DomainError("zero vector has no weight components")
    return v


def _column(irrep, v):
    """Coerce a coordinate vector to a nonzero backend column."""
    v = _vector(irrep, v)
    if isinstance(v, list):
        return matrix_type(irrep.kind).from_rows([[entry] for entry in v])
    return v


def highest_weight_component(irrep, g, v):
    """Magnitude |a_g^0| of v's component in the rotated top-weight space.

    Returned as a float in both backends (square root of the exact norm
    square in exact mode).  The top-weight space of a non-normal rotated
    generator need not be orthogonal to the lower ones, so this is the norm
    of the (generally oblique) spectral projection of v.  The rotation and
    a backend column v must use the irrep's backend; TypeError otherwise.
    """
    part = _top_weight_part(irrep, g, _column(irrep, v))
    return math.sqrt(float(part.frobenius_norm2()))


def _top_weight_part(irrep, g, col):
    """Spectral projection of a backend column onto the rotated top weight."""
    return top_weight_projector(irrep, rotated_generator(irrep, g)) @ col


# ------------------------------------------------------------ rotation search


@dataclass(frozen=True)
class RotationSearch:
    """Outcome of the sampling search for a top-weight-exposing rotation.

    On exhaustion `found` is False and `rotation`/`magnitude` describe the
    best candidate seen.
    """

    found: bool
    rotation: Rotation
    magnitude: float
    samples_used: int
    seed: int


def random_vector(rng, dim, kind="float"):
    """Random nonzero coordinate vector: complex normals or small integers."""
    while True:
        if kind == "float":
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            if float(np.abs(vec).max()) > 1e-12:
                return [complex(v) for v in vec]
        else:
            vec = rng.integers(-9, 10, size=dim)
            if any(int(v) != 0 for v in vec):
                return [int(v) for v in vec]


def find_rotation_with_top_component(irrep, v, budget=1000, seed=0):
    """First sampled rotation under which v has a nonzero top-weight part.

    v is a coordinate sequence or a backend column.  A sequence is checked on
    its coordinates (length, entry types, not all zero) and raises what its
    column would.  Sample 0 is always the identity.  The unrotated
    H1 = diag(r, r-2, ...) keeps coordinate 0 on top, so that sample is
    decided from v_0 alone, with no generator seeded; the column of a
    sequence is built only when sample 1 is needed.  Later samples are
    uniform rotations drawn from a generator seeded with (seed, r), so runs are
    reproducible.  Acceptance is a nonzero exact squared norm in exact mode
    and magnitude above TOP_COMPONENT_THRESHOLD in float mode.  Every vector
    admits such a rotation, so exhaustion at a reasonable budget indicates a
    real problem and is reported with the best candidate found.
    """
    if budget < 1:
        raise DomainError(f"sample budget must be at least 1, got {budget}")
    v = _vector(irrep, v)
    exact = irrep.kind == "exact"

    def judged(norm2):
        mag = math.sqrt(float(norm2))
        return mag, (norm2 != 0) if exact else mag > TOP_COMPONENT_THRESHOLD

    g = identity_rotation(irrep.kind)
    re, im = _entry_parts(irrep.kind, v[0] if isinstance(v, list) else v[0, 0])
    mag, accepted = judged(re * re + im * im)
    if accepted:
        return RotationSearch(True, g, mag, 1, seed)
    col = _column(irrep, v)
    best_mag, best_g = mag, g
    rng = np.random.default_rng([seed, irrep.r])
    for i in range(1, budget):
        g = random_rotation(rng, irrep.kind)
        mag, accepted = judged(_top_weight_part(irrep, g, col).frobenius_norm2())
        if accepted:
            return RotationSearch(True, g, mag, i + 1, seed)
        if mag > best_mag:
            best_mag, best_g = mag, g
    return RotationSearch(False, best_g, best_mag, budget, seed)


# -------------------------------------------------------------- verification


def _comm(a, b):
    return a @ b - b @ a


def irrep_report(max_r):
    """Exact structural checks for all irreps with highest weight <= max_r.

    Covers the ladder relations, the generator commutators (which carry an
    explicit i in this normalization), the Casimir scalar r(r+2)/8, the H1
    weight spectrum, and certified spectra plus zero traces for generators
    rotated by fixed rational quaternions.
    """
    rep = VerificationReport()
    rotations = [(quat, rotation_from_quaternion(*quat, kind="exact"))
                 for quat in _FIXED_QUATERNIONS]
    for r in range(max_r + 1):
        irrep = build_irrep(r, kind="exact")
        h1, h2, h3 = irrep.h
        x, y = _ladder(r, kind="exact")
        sub = f"r={r}"

        rep.add(residual_entry("ladder_relations", f"{sub} raise",
                               _comm(h1, x) - x.scale(2)))
        rep.add(residual_entry("ladder_relations", f"{sub} lower",
                               _comm(h1, y) + y.scale(2)))
        rep.add(residual_entry("ladder_relations", f"{sub} bracket",
                               _comm(x, y) - h1))

        for a, b in ((1, 2), (2, 3), (3, 1)):
            expected = SparseMatrix.zeros(irrep.dim, irrep.dim)
            for c in (1, 2, 3):
                eps = epsilon(a, b, c)
                if eps:
                    expected = expected + irrep[c].scale(ExactScalar(0, 2 * eps))
            rep.add(residual_entry(
                "generator_commutators", f"{sub} [H{a},H{b}]",
                _comm(irrep[a], irrep[b]) - expected,
                note="structure constants carry the explicit i"))

        casimir = (h1 @ h1 + h2 @ h2 + h3 @ h3).scale(Fraction(1, 8))
        target = SparseMatrix.identity(irrep.dim).scale(Fraction(r * (r + 2), 8))
        rep.add(residual_entry("casimir_scalar", sub, casimir - target,
                               note=f"scalar r(r+2)/8 = {Fraction(r * (r + 2), 8)}"))

        diag = SparseMatrix.from_rows(
            [[w if s == t else 0 for t in range(irrep.dim)]
             for s, w in enumerate(irrep.weights())])
        rep.add(residual_entry("weight_spectrum", sub, h1 - diag))

        for quat, g in rotations:
            gen = rotated_generator(irrep, g)
            qsub = f"{sub} q={quat}"
            try:
                top_weight_projector(irrep, gen)
            except SpectrumError as exc:
                rep.add(residual_entry(
                    "rotated_generator_spectrum", qsub,
                    SparseMatrix.identity(1), note=str(exc)))
            else:
                rep.add(residual_entry(
                    "rotated_generator_spectrum", qsub,
                    SparseMatrix.zeros(1, 1),
                    note="certified spectrum {r, r-2, ..., -r}"))
            rep.add(residual_entry(
                "rotated_generator_trace", qsub,
                SparseMatrix.from_rows([[gen.trace()]])))
    return rep
