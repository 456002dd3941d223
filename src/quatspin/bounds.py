"""Closed-form lower bounds on squared Dirac eigenvalues.

Every bound is reported as an exact rational coefficient of kappa/4, where
kappa is the (constant, positive) scalar curvature.  A coefficient derived
from a block transition constant A has the shape 2A/(2A+1); the sign of the
denominator decides whether the formula yields a usable lower bound, so each
coefficient carries a validity flag instead of being silently dropped:

    ok              value > 0, a usable lower bound
    trivial         value = 0, vacuously true
    not-lower-bound value < 0, vacuously true but useless
    degenerate      2A + 1 = 0, no finite value exists

The two-spinor configurations pairing neighbouring blocks come in two
shapes, case A (S_r^k with S_{r+1}^{k+1}) and case B (S_r^k with
S_{r+1}^{k-1}); each yields two coefficients.  The universal bound
(m+3)/(m+2) is the r = 0 extremal value of the case-A family, and
`bound_property_report` certifies the family's properties for every m.

`quatspin bounds` reads `configuration_rows`, `universal_coefficient` and
`comparison_bounds` for its m, and multiplies kappa/4 into the universal
coefficient alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .decomposition import lattice_allows
from .errors import DomainError
from .projectors import closed_form_A
from .report import VerificationReport, bool_entry, info_entry

FLAG_OK = "ok"
FLAG_TRIVIAL = "trivial"
FLAG_NOT_LOWER = "not-lower-bound"
FLAG_DEGENERATE = "degenerate"


class BoundCoefficient(NamedTuple):
    """One coefficient of kappa/4, kept together with its provenance."""

    a_value: Fraction
    two_a_plus_one: Fraction
    value: Fraction | None
    flag: str

    @staticmethod
    def from_constant(a):
        a = Fraction(a)
        den = 2 * a + 1
        if den == 0:
            return BoundCoefficient(a, den, None, FLAG_DEGENERATE)
        value = 2 * a / den
        if value > 0:
            flag = FLAG_OK
        elif value == 0:
            flag = FLAG_TRIVIAL
        else:
            flag = FLAG_NOT_LOWER
        return BoundCoefficient(a, den, value, flag)

    @property
    def usable(self):
        return self.flag == FLAG_OK


class BoundRow(NamedTuple):
    """The two simultaneous coefficients for one block configuration."""

    r: int
    k: int
    case: str
    first: BoundCoefficient
    second: BoundCoefficient


class ComparisonBounds(NamedTuple):
    """Reference coefficients of kappa/4 from the general and Kaehler cases.

    The Kaehler reference is taken at the complex dimension m_c = 2m of a
    real 4m-manifold that happened to be Kaehler.  m_c is even, so the
    applicable parity is "even" at every m; the odd estimate is listed
    beside it.
    """

    complex_dimension: int
    friedrich: Fraction
    kirchberg_odd: Fraction
    kirchberg_even: Fraction
    applicable_parity: str


def _require_dimension(m):
    if m < 1:
        raise DomainError(f"quaternionic dimension must be >= 1, got {m}")


def _require_configuration(m, r, k):
    _require_dimension(m)
    if not lattice_allows(m, r, k):
        raise DomainError(f"(r={r}, k={k}) is not on the weight lattice for m={m}")
    if r >= m:
        raise DomainError(
            f"two-spinor configurations need r <= m-1 (no level above r={r})")


def bound_case_A(m, r, k):
    """Coefficients for an eigenspinor split over S_r^k and S_{r+1}^{k+1}."""
    _require_configuration(m, r, k)
    first = BoundCoefficient.from_constant(closed_form_A(m, r + 1, k + 1, "++"))
    second = BoundCoefficient.from_constant(closed_form_A(m, r, k, "--"))
    return BoundRow(r, k, "A", first, second)


def bound_case_B(m, r, k):
    """Coefficients for an eigenspinor split over S_r^k and S_{r+1}^{k-1}.

    The second coefficient uses the constant with the (fbar, f) vector
    pattern at (r, k); its closed form (-m+r)(2-k+m+r)/(2(r+1)) is the one
    that makes the maximal-k rows reproduce the case-A extremal values.
    """
    _require_configuration(m, r, k)
    if k < 1:
        raise DomainError("case B needs k >= 1 (no weight level below k=0)")
    first = BoundCoefficient.from_constant(closed_form_A(m, r + 1, k - 1, "+-"))
    second = BoundCoefficient.from_constant(closed_form_A(m, r, k, "-+"))
    return BoundRow(r, k, "B", first, second)


def configuration_rows(m):
    """Every case-A and case-B row on the lattice, in (r, k, case) order."""
    return [row for r in range(m) for k in range(m - r, m + r + 1, 2)
            for row in (bound_case_A(m, r, k), bound_case_B(m, r, k))]


def extremal_first_coefficient(m, r):
    """Case-A first coefficient at the smallest lattice weight k = m - r."""
    return Fraction(2 * (3 + m + r), 4 + 2 * m + r)


def extremal_second_coefficient(m, r):
    """Case-A second coefficient at k = m - r; None where degenerate."""
    den = 2 * m - 3 * r - 1
    if den == 0:
        return None
    return Fraction(2 * m - 2 * r, den)


def dominance_threshold(r):
    """Smallest m for which the first extremal coefficient dominates.

    At k = m - r the difference of the two extremal coefficients has the
    sign of m - (2r^2 + 6r + 3), so the first dominates the second exactly
    when m >= 2r^2 + 6r + 3.  For smaller m the second coefficient is the
    stronger bound, and dropping it (as the universal bound does) is merely
    conservative.
    """
    return 2 * r * r + 6 * r + 3


def universal_coefficient(m):
    """The universal coefficient (m+3)/(m+2) of kappa/4."""
    _require_dimension(m)
    return Fraction(m + 3, m + 2)


def comparison_bounds(m):
    """Reference coefficients: the general estimate n/(n-1) for n = 4m and
    the Kaehler estimates (m_c+1)/m_c (odd m_c) and m_c/(m_c-1) (even m_c)
    at m_c = 2m."""
    _require_dimension(m)
    m_c = 2 * m
    n = 4 * m
    return ComparisonBounds(
        complex_dimension=m_c,
        friedrich=Fraction(n, n - 1),
        kirchberg_odd=Fraction(m_c + 1, m_c),
        kirchberg_even=Fraction(m_c, m_c - 1),
        applicable_parity="even",
    )


def _box_witness(box, identity, factors):
    """The first box point where identity fails, or the first factor that is
    not positive on 0 <= r <= m - 1, as a witness; "" when there is none."""
    n, configuration = box
    for point in product(range(5), repeat=n):
        if not identity(*configuration(*point)):
            return "(m, r, k) = ({}, {}, {})".format(*configuration(*point))
    for i, factor in enumerate(factors):
        if factor(1, 0) <= 0 or factor(2, 0) < factor(1, 0) or factor(2, 1) < factor(1, 0):
            return f"affine factor {i} is not positive"
    return ""


def _certificates():
    """(check_id, subject, box, identity, factors, note) per certificate: box is
    (n, map from N^n to (m, r, k)), each factor an affine form in (m, r)."""
    every = (3, lambda a, s, t: (s + t + 1 + a, s + t, 1 + a + 2 * s))
    extremal = (2, lambda a, t: (t + 1 + a, t, 1 + a))  # s = 0, so k = m - r
    f1, f2 = extremal_first_coefficient, extremal_second_coefficient

    def constants(row):
        return row.first.a_value, row.second.a_value

    def dominance(m, r, k):
        first, second = constants(bound_case_A(m, r, k))
        return (first - second) * (r + 1) * (r + 2) == m - dominance_threshold(r)

    rows = [
        ("universal_is_extremal_case_A", "all m", (1, lambda a: (1 + a, 0, 1 + a)),
         lambda m, r, k: universal_coefficient(m) == f1(m, 0)
         == bound_case_A(m, r, k).first.value, [lambda m, r: m + 2],
         "(m+3)/(m+2) is the case-A first coefficient at r = 0"),
        ("extremal_coefficient_formulas", "all m k=m-r", extremal,
         lambda m, r, k: (bound_case_A(m, r, k).first.value,
                          bound_case_A(m, r, k).second.value) == (f1(m, r), f2(m, r)),
         [lambda m, r: 2 * m + r + 4, lambda m, r: m - r],
         "the second is degenerate exactly at 2m = 3r + 1"),
        ("extremal_r_monotonicity", "all m", extremal,
         lambda m, r, k: f1(m, r + 1) - f1(m, r)
         == Fraction(2 * (m + 1), (2 * m + r + 4) * (2 * m + r + 5)),
         [lambda m, r: m + 1, lambda m, r: 2 * m + r + 4, lambda m, r: 2 * m + r + 5],
         "first extremal coefficient strictly increases in r"),
        ("case_B_mirrors_case_A", "all m", every,
         lambda m, r, k: constants(bound_case_B(m, r, k))
         == constants(bound_case_A(m, r, 2 * m - k)), [],
         "k -> 2m - k; k = m + r gives the extremal case-A pair"),
        ("extremal_dominance_characterization", "all m k=m-r", extremal, dominance,
         [lambda m, r: 2 * m + r + 4, lambda m, r: m - r],
         "among usable pairs first >= second iff m >= 2r^2 + 6r + 3"),
    ]
    # each constant is -(multiplier) * num/den, the multiplier affine in s
    for case, bound, multiplier, moves in (
            ("A", bound_case_A, lambda r, s: s + 1, "falls"),
            ("B", bound_case_B, lambda r, s: r - s + 1, "rises")):
        for slot, num, den in (("first", lambda m, r: m + r + 3, lambda m, r: r + 2),
                               ("second", lambda m, r: m - r, lambda m, r: r + 1)):
            rows.append((
                "k_monotonicity_per_branch", f"all m case={case} {slot}", every,
                lambda m, r, k, bound=bound, slot=slot, multiplier=multiplier, num=num,
                den=den: getattr(bound(m, r, k), slot).a_value
                == -multiplier(r, (k + r - m) // 2) * Fraction(num(m, r), den(m, r)),
                [num, den], f"A {moves} as k grows; so does 2A/(2A+1) along each run "
                            f"of one sign of 2A + 1"))
    return rows


def bound_property_report():
    """Certificates, for every m, of the properties of the bound family.

    (a, s, t) in N^3 with r = s + t, m = r + 1 + a and k = m - r + 2s runs
    over every configuration (0 <= s <= r <= m - 1, k >= 1); s = 0 is
    k = m - r.  2(r+1) closed_form_A is a product of two affine forms, so an
    identity a row checks, cleared of denominators, is a polynomial of
    degree <= 4 in each coordinate that vanishes where the identity holds;
    vanishing on {0..4}^n, it vanishes on N^n.  Back from the polynomial,
    where a closed form's denominator is not 0, 2A + 1 = 0 would force
    A = 0, so the identity holds; where `extremal_second_coefficient` is None
    (2m = 3r + 1) the cleared formula reads (m - r)(2A + 1) = 0: the row is
    degenerate exactly there.  Each sign a row reads is of an affine form in
    (m, r), positive on r <= m - 1 iff positive at (1, 0) and lowered by
    neither step, to (2, 0) or (2, 1).

    The k rows read the constants -(s+1)g (case A) and -(r-s+1)g (case B),
    g = (m+r+3)/(r+2) (first) or (m-r)/(r+1) (second): A falls with k in
    case A and rises in case B, and 2A/(2A+1) = 1 - 1/(2A+1) follows A along
    each run of one sign of 2A + 1.  At k = m - r, (A1 - A2)(r+1)(r+2) =
    m - dominance_threshold(r); there A1 < 0 and 2A1 + 1 < 0, and a usable
    second has 2A2 + 1 < 0 as A2 < 0, so first - second =
    2(A1 - A2)/((2A1+1)(2A2+1)) has the sign of m - dominance_threshold(r).
    Below it, keeping only the first is conservative, as at (m, r) = (2, 0).
    """
    rep = VerificationReport()
    for check_id, subject, box, identity, factors, note in _certificates():
        witness = _box_witness(box, identity, factors)
        rep.add(bool_entry(check_id, subject, not witness, witness, note))
    row = bound_case_A(2, 0, 2)
    rep.add(info_entry("extremal_dominance_characterization", "(m, r) = (2, 0)",
                       f"second coefficient {row.second.value} exceeds first "
                       f"{row.first.value}; keeping only the first is conservative"))
    return rep
