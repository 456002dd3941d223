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
(m+3)/(m+2) is the r = 0 extremal value of the case-A family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decomposition import lattice_allows
from .errors import DomainError
from .projectors import closed_form_A
from .report import VerificationReport, bool_entry, info_entry

FLAG_OK = "ok"
FLAG_TRIVIAL = "trivial"
FLAG_NOT_LOWER = "not-lower-bound"
FLAG_DEGENERATE = "degenerate"


@dataclass(frozen=True)
class BoundCoefficient:
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


@dataclass(frozen=True)
class BoundRow:
    """The two simultaneous coefficients for one block configuration."""

    m: int
    r: int
    k: int
    case: str
    first: BoundCoefficient
    second: BoundCoefficient


@dataclass(frozen=True)
class ComparisonBounds:
    """Reference coefficients of kappa/4 from the general and Kaehler cases.

    The Kaehler reference takes a complex dimension of its own; a real
    4m-manifold that happened to be Kaehler would have complex dimension 2m,
    which is the default.
    """

    m: int
    complex_dimension: int
    friedrich: Fraction
    kirchberg_odd: Fraction
    kirchberg_even: Fraction
    applicable_parity: str


@dataclass(frozen=True)
class BoundReport:
    """All bound data for one quaternionic dimension m at curvature kappa."""

    m: int
    kappa: Fraction
    rows: tuple
    universal: Fraction
    comparisons: ComparisonBounds

    @property
    def universal_value(self):
        """The universal lower bound on lambda^2, as an exact rational."""
        return self.universal * self.kappa / 4


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
    return BoundRow(m, r, k, "A", first, second)


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
    return BoundRow(m, r, k, "B", first, second)


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


def comparison_bounds(m, complex_dimension=None):
    """Reference coefficients: the general estimate n/(n-1) for n = 4m and
    the Kaehler estimates (m_c+1)/m_c (odd m_c) and m_c/(m_c-1) (even m_c)."""
    _require_dimension(m)
    m_c = 2 * m if complex_dimension is None else complex_dimension
    if m_c < 2:
        raise DomainError(f"complex dimension must be >= 2, got {m_c}")
    n = 4 * m
    return ComparisonBounds(
        m=m,
        complex_dimension=m_c,
        friedrich=Fraction(n, n - 1),
        kirchberg_odd=Fraction(m_c + 1, m_c),
        kirchberg_even=Fraction(m_c, m_c - 1),
        applicable_parity="odd" if m_c % 2 else "even",
    )


def build_bound_report(m, kappa=Fraction(4), complex_dimension=None):
    """Assemble the full per-configuration table plus reference rows."""
    kappa = Fraction(kappa)
    if kappa <= 0:
        raise DomainError(f"scalar curvature must be positive, got {kappa}")
    return BoundReport(
        m=m,
        kappa=kappa,
        rows=tuple(configuration_rows(m)),
        universal=universal_coefficient(m),
        comparisons=comparison_bounds(m, complex_dimension),
    )


def _sign(x):
    return (x > 0) - (x < 0)


def _monotone_runs_ok(values_with_dens, direction):
    """Check monotonicity of coefficient values along runs of constant
    denominator sign; returns (ok, note) where note names the first break."""
    prev_sign = None
    prev_value = None
    for k, den, value in values_with_dens:
        sign = _sign(den)
        if sign == 0:
            prev_sign = None
            prev_value = None
            continue
        if sign == prev_sign and prev_value is not None:
            if direction > 0 and value < prev_value:
                return False, f"decrease at k={k}"
            if direction < 0 and value > prev_value:
                return False, f"increase at k={k}"
        prev_sign = sign
        prev_value = value
    return True, ""


def bound_property_report(max_m):
    """Enumeration checks of the bound family for m = 1..max_m.

    Verifies that the universal coefficient is the r = 0 extremal case-A
    value, the closed forms of both extremal coefficients, strict
    r-monotonicity of the first extremal family, per-branch k-monotonicity
    of both cases (nonincreasing for case A, nondecreasing for case B,
    along runs of constant denominator sign), the equality of maximal-k
    case-B rows with the extremal case-A rows, and the exact dominance
    characterization at k = m - r: among rows where both coefficients are
    usable, the first dominates iff m >= 2r^2 + 6r + 3.  Where the second
    coefficient is the larger one, the universal bound remains valid but is
    not the sharpest consequence of the two inequalities; those rows get an
    informational entry.
    """
    rep = VerificationReport()
    for m in range(1, max_m + 1):
        sub = f"m={m}"
        uni = universal_coefficient(m)
        row0 = bound_case_A(m, 0, m)
        ok = uni == extremal_first_coefficient(m, 0) == row0.first.value
        rep.add(bool_entry("universal_is_extremal_case_A", sub, ok,
                           note="" if ok else f"universal {uni} != case-A r=0 value"))

        prev = None
        increasing = True
        for r in range(m):
            row = bound_case_A(m, r, m - r)
            want_first = extremal_first_coefficient(m, r)
            want_second = extremal_second_coefficient(m, r)
            ok = row.first.value == want_first
            if want_second is None:
                ok = ok and row.second.flag == FLAG_DEGENERATE
            else:
                ok = ok and row.second.value == want_second
            rep.add(bool_entry("extremal_coefficient_formulas", f"{sub} r={r}", ok))
            if prev is not None and want_first <= prev:
                increasing = False
            prev = want_first
        rep.add(bool_entry("extremal_r_monotonicity", sub, increasing,
                           note="first extremal coefficient strictly increases in r"))

        for r in range(m):
            ks = range(m - r, m + r + 1, 2)
            rows_a = [bound_case_A(m, r, k) for k in ks]
            rows_b = [bound_case_B(m, r, k) for k in ks]
            for label, rows, direction in (("A", rows_a, -1), ("B", rows_b, +1)):
                for slot in ("first", "second"):
                    seq = [(row.k, getattr(row, slot).two_a_plus_one,
                            getattr(row, slot).value) for row in rows]
                    ok, note = _monotone_runs_ok(seq, direction)
                    rep.add(bool_entry("k_monotonicity_per_branch",
                                       f"{sub} r={r} case={label} {slot}", ok, note=note))

            top_b = rows_b[-1]
            ext_a = rows_a[0]
            ok = (top_b.first.value == ext_a.first.value
                  and top_b.first.flag == ext_a.first.flag
                  and top_b.second.value == ext_a.second.value
                  and top_b.second.flag == ext_a.second.flag)
            rep.add(bool_entry("case_B_maximal_k_matches_case_A", f"{sub} r={r}", ok,
                               note="k = m+r rows reproduce the k = m-r case-A pair"))

            ext = rows_a[0]
            if ext.first.usable and ext.second.usable:
                dominates = ext.first.value >= ext.second.value
                predicted = m >= dominance_threshold(r)
                ok = dominates == predicted
                rep.add(bool_entry(
                    "extremal_dominance_characterization", f"{sub} r={r}", ok,
                    note=f"first >= second iff m >= {dominance_threshold(r)}"))
                if ok and not dominates:
                    rep.add(info_entry(
                        "extremal_dominance_characterization",
                        f"{sub} r={r} note",
                        f"second coefficient {ext.second.value} exceeds first "
                        f"{ext.first.value}; keeping only the first is "
                        f"conservative"))
    return rep
