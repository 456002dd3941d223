"""Integer-highest-weight irreducible representations of so(3).

Builds, for each nonnegative integer r, the (r+1)-dimensional irreducible
representation in a weight basis where the distinguished generator H1 is
diagonal with spectrum {r, r-2, ..., -r}.  The companions H2 = X + Y and
H3 = -i(X - Y) come from the integer ladder normalization, and the triple
satisfies [H_a, H_b] = 2i eps_abc H_c exactly.

A rotation g acts on the generator span through its first row:
g^{-1}H1 = sum_b g_{0b} H_{b+1}.  The module extracts the component of a
vector in the top-eigenvalue eigenspace of such a rotated generator and
walks the fixed rotations of 1 + tj, t = 0, 1, ..., for one under which
that component is nonzero; the first r + 1 of them always find one.
Everything is exact: the coordinates are Gaussian rationals, and a rotation
is the rational matrix of a quaternion read exactly, whether its components
are small integers or the floats of four standard normals.

A rotated generator is tridiagonal in the weight basis, and its spectrum is
certified by the continuant of its three bands, in Python integers over its
common denominator, with no matrix product: the continuant p_{r+1}(mu) is
det(mu - H) scaled, and its vanishing at each of the r + 1 weights makes
the characteristic polynomial prod (x - mu).  The top eigenvectors and the
top-weight component come from the same numbers (see `_certified_bands`,
`_top_eigenvectors` and `_top_weight_norm2`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DimensionError, DomainError, SpectrumError
from .exact import ExactScalar, SparseMatrix, commutator, fused_sum
from .quaternionic import epsilon
from .report import VerificationReport, bool_entry, residual_entry

_FIXED_QUATERNIONS = ((1, 2, 2, 0), (2, 3, 6, 0), (1, 1, 1, 1))


# --------------------------------------------------------------------- irreps


class Irrep(NamedTuple):
    """Irreducible representation of highest weight r on C^{r+1}.

    `h` holds the three exact generators; indexing is 1-based to match the
    subscripts H1, H2, H3.
    """

    r: int
    h: tuple

    @property
    def dim(self):
        """The dimension r + 1."""
        return self.r + 1

    def __getitem__(self, a):
        if a not in (1, 2, 3):
            raise DomainError(f"generator index must be 1, 2 or 3, got {a}")
        return self.h[a - 1]

    def weights(self):
        """H1 eigenvalues from highest to lowest: r, r-2, ..., -r."""
        return [self.r - 2 * s for s in range(self.dim)]


def _ladder(r):
    """Raising/lowering pair: X v_s = s(r-s+1) v_{s-1}, Y v_s = v_{s+1}."""
    n = r + 1
    x = [[0] * n for _ in range(n)]
    y = [[0] * n for _ in range(n)]
    for s in range(1, n):
        x[s - 1][s] = s * (r - s + 1)
        y[s][s - 1] = 1
    return SparseMatrix.from_rows(x), SparseMatrix.from_rows(y)


def build_irrep(r, kind="exact"):
    """Construct the highest-weight-r irreducible so(3) representation.

    The generators are exact; `kind` accepts "exact" only (DomainError
    otherwise), as `rotation_from_quaternion` does.
    """
    if not isinstance(r, int) or r < 0:
        raise DomainError(f"highest weight must be a nonnegative integer, got {r}")
    if kind != "exact":
        raise DomainError(f"irreps are exact, not {kind!r}")
    n = r + 1
    h1 = SparseMatrix.from_rows(
        [[r - 2 * s if s == t else 0 for t in range(n)] for s in range(n)])
    x, y = _ladder(r)
    h2 = x + y
    h3 = (x - y).scale(ExactScalar(0, -1))
    return Irrep(r=r, h=(h1, h2, h3))


# ------------------------------------------------------------------ rotations


class Rotation(NamedTuple):
    """3x3 special-orthogonal matrix with Fraction entries."""

    entries: tuple

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]


def rotation_from_quaternion(w, x, y, z, kind="exact"):
    """Rotation represented by the (not necessarily unit) quaternion w+xi+yj+zk.

    The homogeneous form divides by the squared norm, so a rational
    quaternion gives a rational matrix.  Each component is read exactly (a
    float through Fraction), scaled to an integer by the common denominator
    (the form is homogeneous of degree 2), and each entry is one Fraction.
    `kind` accepts "exact" only: rotations have one kind.
    """
    if kind != "exact":
        raise DomainError(f"rotations are exact, not {kind!r}")
    q = [Fraction(c) for c in (w, x, y, z)]
    # int(): the parts of a numpy integer's Fraction stay int64 and overflow
    d = math.lcm(*(int(c.denominator) for c in q))
    w, x, y, z = (int(c.numerator) * (d // int(c.denominator)) for c in q)
    n = w * w + x * x + y * y + z * z
    if n == 0:
        raise DomainError("zero quaternion does not define a rotation")
    rows = (
        (w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z),
    )
    return Rotation(tuple(tuple(Fraction(v, n) for v in row) for row in rows))


def identity_rotation():
    one, zero = Fraction(1), Fraction(0)
    return Rotation(((one, zero, zero), (zero, one, zero), (zero, zero, one)))


def _rotation_defect(g):
    """Orthogonality and determinant defects, as Fractions.

    The entries are read as N / d over their common denominator d, so the
    defects are max |sum_k N_ki N_kj - delta_ij d^2| / d^2 and
    |det N - d^3| / d^3, with the numerators in integer arithmetic.
    """
    e = g.entries
    d = math.lcm(*(v.denominator for row in e for v in row))
    e = [[v.numerator * (d // v.denominator) for v in row] for row in e]
    dev = max(abs(sum(e[k][i] * e[k][j] for k in range(3)) - (d * d if i == j else 0))
              for i in range(3) for j in range(3))
    det = (e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
           - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
           + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0]))
    return Fraction(dev, d ** 2), Fraction(abs(det - d ** 3), d ** 3)


def check_rotation(g):
    """Certify R^T R = I and det R = 1 exactly."""
    dev, ddet = _rotation_defect(g)
    if dev or ddet:
        raise DomainError(
            "not a special orthogonal matrix "
            f"(orthogonality defect {float(dev):.3e}, det defect {float(ddet):.3e})")


# -------------------------------------------------- rotated generator algebra


def rotated_generator(irrep, g):
    """Image of H1 under the rotation: sum_b g_{0b} H_{b+1}.

    Same spectrum as H1 for any valid rotation.  One fused combination of
    the three exact generators.
    """
    check_rotation(g)
    return fused_sum(terms=list(zip(g.row(0), irrep.h)))


def _gmul(a, b):
    """Product of two Gaussian integers held as (re, im) pairs."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _gdot(a, b):
    """sum_j a_j b_j over two sequences of Gaussian-integer pairs (no conjugate)."""
    re = im = 0
    for x, y in zip(a, b):
        re += x[0] * y[0] - x[1] * y[1]
        im += x[0] * y[1] + x[1] * y[0]
    return re, im


def _certified_bands(irrep, gen):
    """Certify that gen has the simple spectrum {r, r-2, ..., -r}; return its bands.

    With gen = N / den, N's diagonal d_j, upper band u_j = N[j, j+1] and lower
    band l_j = N[j+1, j] are read as Gaussian-integer pairs; an entry off the
    three bands raises SpectrumError.  For a tridiagonal N the continuant

        p_0 = 1,  p_{j+1}(mu) = (mu den - d_j) p_j - u_{j-1} l_{j-1} p_{j-1}

    gives p_{r+1}(mu) = det(mu den - N) = den^{r+1} det(mu - gen).  Requiring
    it to vanish at each of the r + 1 distinct weights makes the
    characteristic polynomial prod (x - mu): the spectrum is exactly the
    weights and every eigenvalue is simple.  A failing weight raises
    SpectrumError with |det(mu - gen)|.  Returns (den, d, u, l, p), with p the
    continuants p_0..p_r at the top weight r, from which
    `_top_eigenvectors` reads the eigenvectors.
    """
    n = irrep.dim
    if (gen.rows, gen.cols) != (n, n):
        raise DimensionError(f"expected a {n}x{n} generator, got {gen.rows}x{gen.cols}")
    den, nums = gen.numerators()
    d = [nums.pop((j, j), (0, 0)) for j in range(n)]
    u = [nums.pop((j, j + 1), (0, 0)) for j in range(n - 1)]
    lo = [nums.pop((j + 1, j), (0, 0)) for j in range(n - 1)]
    if nums:
        raise SpectrumError("eigen-equation not certified: entry "
                            f"{min(nums)} lies off the three bands")
    # links[j] = u_{j-1} l_{j-1}; p_{-1} = 0 makes links[0] irrelevant
    links = [(0, 0)] + [_gmul(a, b) for a, b in zip(u, lo)]
    for mu in irrep.weights():
        x = mu * den
        prev, p = (0, 0), (1, 0)
        conts = [p]
        for j in range(n):
            nxt, back = _gmul((x - d[j][0], -d[j][1]), p), _gmul(links[j], prev)
            prev, p = p, (nxt[0] - back[0], nxt[1] - back[1])
            conts.append(p)
        if p != (0, 0):
            scale = den ** n
            det = math.hypot(Fraction(p[0], scale), Fraction(p[1], scale))
            raise SpectrumError(
                f"eigen-equation fails for {mu} (|det({mu} - H)| = {det:.3e})")
        if mu == irrep.r:
            top = conts[:n]
    return den, d, u, lo, top


def _top_eigenvectors(irrep, gen):
    """Right and left top eigenvectors (w, l) of gen, as Gaussian-integer pairs.

    (gen - r) w = 0 and l^T (gen - r) = 0, with w_j = p_j(r) u_j...u_{r-1}
    and l_j = p_j(r) l_j...l_{r-1} from the certified continuants: row j of
    (gen - r) w = 0 is the recurrence from p_j to p_{j+1}, and the last row is
    p_{r+1}(r) = 0.  Every off-diagonal of a rotated generator is
    (g01 -+ i g02) times a nonzero integer, so the bands are all nonzero or all
    zero.  All zero means gen = +-H1, whose top eigenvectors are both the unit
    vector at the diagonal entry r; a band that is only partly zero raises
    SpectrumError.
    """
    den, d, u, lo, p = _certified_bands(irrep, gen)
    zero = [b == (0, 0) for b in u + lo]
    if all(zero):
        top = d.index((irrep.r * den, 0))
        unit = [(int(j == top), 0) for j in range(irrep.dim)]
        return unit, unit
    if any(zero):
        raise SpectrumError(f"eigen-equation for {irrep.r} not solved: the "
                            "off-diagonal bands are partly zero")
    w, left = [], []
    tail_u = tail_l = (1, 0)
    for j in reversed(range(irrep.dim)):
        w.append(_gmul(p[j], tail_u))
        left.append(_gmul(p[j], tail_l))
        if j:
            tail_u, tail_l = _gmul(tail_u, u[j - 1]), _gmul(tail_l, lo[j - 1])
    return w[::-1], left[::-1]


def _vector(irrep, v):
    """The coordinates, as a list, of a nonzero vector of the irrep's dimension.

    v is a coordinate sequence, checked on its length; then every
    coordinate is read.  Raises DimensionError for a wrong length,
    DomainError for the zero vector, and TypeError for a matrix or an
    entry that is not int, Fraction or ExactScalar.
    """
    if hasattr(v, "kind"):
        raise TypeError(f"coordinates are a sequence, not a {type(v).__name__}")
    v = list(v)
    if len(v) != irrep.dim:
        raise DimensionError(f"expected {irrep.dim} coordinates, got {len(v)}")
    # a list, not a generator: every entry is read, so a wrong type raises
    if not any([re or im for re, im in map(ExactScalar.parts, v)]):
        raise DomainError("zero vector has no weight components")
    return v


def _operand(v):
    """What `_top_weight_norm2` reads of checked coordinates: (den, numerators).

    The coordinates, Gaussian rationals, are given as Gaussian-integer
    numerators over their common denominator den.
    """
    parts = [[Fraction(c) for c in ExactScalar.parts(x)] for x in v]
    den = math.lcm(*(c.denominator for pair in parts for c in pair))
    return den, [tuple(c.numerator * (den // c.denominator) for c in pair)
                 for pair in parts]


def _top_weight_norm2(irrep, g, operand):
    """|P v|^2 for the top-weight projection P of the generator rotated by g.

    The Fraction |w|^2 |l . v|^2 / |l . w|^2 from the certified top
    eigenvectors of the irrep's exact generators, since
    P v = w (l . v) / (l . w); no projector is built.
    """
    den, coords = operand
    w, left = _top_eigenvectors(irrep, rotated_generator(irrep, g))
    lv_re, lv_im = _gdot(left, coords)
    lw_re, lw_im = _gdot(left, w)
    return Fraction(sum(a * a + b * b for a, b in w) * (lv_re * lv_re + lv_im * lv_im),
                    (lw_re * lw_re + lw_im * lw_im) * den * den)


def highest_weight_component(irrep, g, v):
    """Magnitude |a_g^0| of v's component in the rotated top-weight space.

    A float, the square root of the exact norm square.  The top-weight space
    of a non-normal rotated generator need not be orthogonal to the lower
    ones, so this is the norm of the (generally oblique) spectral projection
    of v, a coordinate sequence read as `find_rotation_with_top_component`
    reads it.
    """
    operand = _operand(_vector(irrep, v))
    return math.sqrt(float(_top_weight_norm2(irrep, g, operand)))


# ------------------------------------------------------------ rotation search


class RotationSearch(NamedTuple):
    """Outcome of the search for a top-weight-exposing rotation.

    On exhaustion `found` is False, and `rotation` and `magnitude` are those
    of sample 0: the identity and 0.
    """

    found: bool
    rotation: Rotation
    magnitude: float
    samples_used: int


def random_vector(rng, dim):
    """Random nonzero coordinate vector of small integers."""
    while True:
        vec = rng.integers(-9, 10, size=dim)
        if vec.any():
            return [int(v) for v in vec]


def find_rotation_with_top_component(irrep, v, budget=1000):
    """First rotation g_t under which v has a nonzero top-weight part.

    v is a coordinate sequence of int, Fraction or ExactScalar entries,
    checked on its length, its entry types and not being all zero.  Sample t
    is g_t = `rotation_from_quaternion(1, 0, t, 0)`, the rotation of 1 + tj,
    for t = 0, 1, ..., budget - 1.  Sample 0 is the identity, whose
    H1 = diag(r, r-2, ...) keeps coordinate 0 on top, so it is decided from
    v_0 alone; v's numerators are formed only when sample 1 is needed.  Each
    later sample is judged by the exact norm from the certified top
    eigenvectors and accepted when it is nonzero; `magnitude` is its square
    root as a float.

    The walk always ends by sample r.  P v = 0 exactly when l_t . v = 0 for
    the top left eigenvector l_t of g_t's rotated generator, and
    l_t[s] = lambda_t c_s t^s with lambda_t != 0 and c_s = (-i)^s r!/(r-s)!
    independent of t (g_t turns about the second axis by 2 arctan t).  So
    [l_0 ... l_r] is a Vandermonde matrix in t = 0..r between two invertible
    diagonals, of rank r + 1, and no nonzero v is orthogonal to all of them:
    every v is found with samples_used <= r + 1, and only a budget <= r can
    exhaust.  Exhaustion reports sample 0, the identity, with magnitude 0.
    """
    if budget < 1:
        raise DomainError(f"sample budget must be at least 1, got {budget}")
    v = _vector(irrep, v)
    re, im = ExactScalar.parts(v[0])
    if re or im:
        return RotationSearch(True, identity_rotation(), math.sqrt(re * re + im * im), 1)
    operand = _operand(v)
    for t in range(1, budget):
        g = rotation_from_quaternion(1, 0, t, 0)
        norm2 = _top_weight_norm2(irrep, g, operand)
        if norm2:
            return RotationSearch(True, g, math.sqrt(norm2), t + 1)
    return RotationSearch(False, identity_rotation(), 0.0, budget)


# -------------------------------------------------------------- verification


def irrep_report(max_r):
    """Exact structural checks for all irreps with highest weight <= max_r.

    Covers the ladder relations, the generator commutators (which carry an
    explicit i in this normalization), the Casimir scalar r(r+2)/8, the H1
    weight spectrum, and certified spectra plus zero traces for generators
    rotated by fixed rational quaternions.  The ladder rows check
    X = (H2 + iH3)/2 and Y = (H2 - iH3)/2 of the irrep under test.  A rotated
    spectrum is certified by the continuant of the generator's three bands
    alone (`_certified_bands`): no projector and no matrix product.
    """
    rep = VerificationReport()
    rotations = [(quat, rotation_from_quaternion(*quat))
                 for quat in _FIXED_QUATERNIONS]
    for r in range(max_r + 1):
        irrep = build_irrep(r)
        h1, h2, h3 = irrep.h
        # X = (H2 + i H3)/2 and Y = (H2 - i H3)/2
        x, y = (fused_sum(terms=[(Fraction(1, 2), h2), (ExactScalar(0, Fraction(t, 2)), h3)])
                for t in (1, -1))
        sub = f"r={r}"

        rep.add(residual_entry("ladder_relations", f"{sub} raise",
                               commutator(h1, x, [(-2, x)])))
        rep.add(residual_entry("ladder_relations", f"{sub} lower",
                               commutator(h1, y, [(2, y)])))
        rep.add(residual_entry("ladder_relations", f"{sub} bracket",
                               commutator(x, y, [(-1, h1)])))

        for a, b in ((1, 2), (2, 3), (3, 1)):
            # [H_a, H_b] = 2i eps_abc H_c
            rep.add(residual_entry(
                "generator_commutators", f"{sub} [H{a},H{b}]",
                commutator(irrep[a], irrep[b],
                           [(ExactScalar(0, -2 * epsilon(a, b, c)), irrep[c]) for c in (1, 2, 3)]),
                note="structure constants carry the explicit i"))

        scalar = Fraction(r * (r + 2), 8)
        casimir = fused_sum([(Fraction(1, 8), h, h) for h in irrep.h],
                            [(-scalar, SparseMatrix.identity(irrep.dim))])
        rep.add(residual_entry("casimir_scalar", sub, casimir,
                               note=f"scalar r(r+2)/8 = {scalar}"))

        diag = SparseMatrix.from_rows(
            [[w if s == t else 0 for t in range(irrep.dim)]
             for s, w in enumerate(irrep.weights())])
        rep.add(residual_entry("weight_spectrum", sub, h1 - diag))

        for quat, g in rotations:
            gen = rotated_generator(irrep, g)
            qsub = f"{sub} q={quat}"
            try:
                _certified_bands(irrep, gen)
                ok, note = True, "certified spectrum {r, r-2, ..., -r}"
            except SpectrumError as exc:
                ok, note = False, str(exc)
            rep.add(bool_entry("rotated_generator_spectrum", qsub, ok,
                               "1.000000e+00", note))
            rep.add(residual_entry(
                "rotated_generator_trace", qsub,
                SparseMatrix.from_rows([[gen.trace()]])))
    return rep
