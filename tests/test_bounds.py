from fractions import Fraction
from itertools import product

import pytest

from quatspin import bounds
from quatspin.bounds import (
    BoundCoefficient,
    _certificates,
    bound_case_A,
    bound_case_B,
    bound_property_report,
    comparison_bounds,
    configuration_rows,
    dominance_threshold,
    extremal_first_coefficient,
    extremal_second_coefficient,
    universal_coefficient,
)
from quatspin.errors import DomainError
from quatspin.projectors import closed_form_A


def test_universal_coefficient_values():
    assert universal_coefficient(1) == Fraction(4, 3)
    assert universal_coefficient(2) == Fraction(5, 4)
    assert universal_coefficient(3) == Fraction(6, 5)


def test_universal_domain_errors():
    with pytest.raises(DomainError):
        universal_coefficient(0)
    with pytest.raises(DomainError):
        comparison_bounds(0)


def test_universal_limit_is_one():
    coeff = universal_coefficient(10**6)
    assert coeff == Fraction(10**6 + 3, 10**6 + 2)
    assert 0 < float(coeff) - 1 < 1e-5


def test_case_A_worked_row():
    row = bound_case_A(2, 0, 2)
    assert row.first.value == Fraction(5, 4)
    assert row.first.flag == "ok"
    assert row.first.a_value == closed_form_A(2, 1, 3, "++") == Fraction(-5, 2)
    assert row.first.two_a_plus_one == -4
    assert row.second.value == Fraction(4, 3)
    assert row.second.a_value == closed_form_A(2, 0, 2, "--") == -2


def test_extremal_closed_forms():
    for m in range(1, 13):
        for r in range(m):
            row = bound_case_A(m, r, m - r)
            assert row.first.value == extremal_first_coefficient(m, r)
            want = extremal_second_coefficient(m, r)
            if want is None:
                assert row.second.flag == "degenerate"
                assert row.second.value is None
            else:
                assert row.second.value == want


def test_validity_flags():
    # 2A + 1 = 0 at (m=2, r=1, k=1) for the second coefficient
    assert bound_case_A(2, 1, 1).second.flag == "degenerate"
    assert bound_case_A(2, 1, 1).second.value is None
    # negative coefficient: vacuous as a lower bound
    row = bound_case_A(3, 2, 1)
    assert row.second.value == -2
    assert row.second.flag == "not-lower-bound"
    assert not row.second.usable
    # the constant 0 would give the trivial bound
    assert BoundCoefficient.from_constant(0).flag == "trivial"
    assert BoundCoefficient.from_constant(Fraction(-1, 4)).flag == "not-lower-bound"


def test_configuration_domain_errors():
    with pytest.raises(DomainError):
        bound_case_A(2, 0, 1)  # off the weight lattice
    with pytest.raises(DomainError):
        bound_case_A(2, 2, 2)  # no degree level above r = m
    with pytest.raises(DomainError):
        bound_case_B(2, 2, 0)
    with pytest.raises(DomainError):
        bound_case_A(0, 0, 0)


def test_case_B_mirrors_case_A():
    # reversing the sign of the weight operator maps k to 2m - k and swaps
    # the two cases, so their coefficient pairs must agree exactly
    for m in range(1, 9):
        for r in range(m):
            for k in range(m - r, m + r + 1, 2):
                b = bound_case_B(m, r, k)
                a = bound_case_A(m, r, 2 * m - k)
                assert (b.first.value, b.first.flag) == (a.first.value, a.first.flag)
                assert (b.second.value, b.second.flag) == (a.second.value, a.second.flag)


def test_case_B_maximal_k_reproduces_extremal():
    for m in range(1, 11):
        for r in range(m):
            top = bound_case_B(m, r, m + r)
            ext = bound_case_A(m, r, m - r)
            assert top.first.value == ext.first.value
            assert top.second.value == ext.second.value
            assert top.second.flag == ext.second.flag


def test_dominance_characterization_brute_force():
    # among usable extremal pairs the first dominates iff m >= 2r^2 + 6r + 3;
    # below that threshold the second inequality is the stronger one and
    # keeping only the first is conservative
    seen_conservative = 0
    for m in range(1, 51):
        for r in range(m):
            row = bound_case_A(m, r, m - r)
            if not (row.first.usable and row.second.usable):
                continue
            dominates = row.first.value >= row.second.value
            assert dominates == (m >= dominance_threshold(r)), (m, r)
            seen_conservative += 0 if dominates else 1
    assert seen_conservative > 0  # e.g. (m, r) = (2, 0): 5/4 < 4/3


def test_comparison_coefficients():
    cmp2 = comparison_bounds(2)
    assert cmp2.friedrich == Fraction(8, 7)
    assert cmp2.complex_dimension == 4
    assert cmp2.kirchberg_even == Fraction(4, 3)
    assert cmp2.applicable_parity == "even"
    assert cmp2.kirchberg_odd == Fraction(5, 4)
    assert comparison_bounds(1).kirchberg_even == 2
    # at m = 1 the universal and general coefficients coincide
    assert comparison_bounds(1).friedrich == universal_coefficient(1)


def test_configuration_rows_carry_the_universal_coefficient():
    # 3 lattice points (r=0: k=2; r=1: k=1,3) x 2 cases
    assert [(row.r, row.k, row.case) for row in configuration_rows(2)] == [
        (0, 2, "A"), (0, 2, "B"), (1, 1, "A"), (1, 1, "B"), (1, 3, "A"), (1, 3, "B")]
    for m in range(1, 9):
        rows = configuration_rows(m)
        keys = [(row.r, row.k, row.case) for row in rows]
        assert keys == sorted(keys), m
        # the first row is case A at r = 0, k = m: its first coefficient
        assert rows[0].first.value == universal_coefficient(m), m


def test_property_report_enumeration():
    rep = bound_property_report()
    assert rep.ok
    counts = rep.counts()
    assert counts == {"pass": 9, "fail": 0, "info": 1}
    judged = [e for e in rep.entries if e.status != "info"]
    assert all(e.subject.startswith("all m") for e in judged)
    assert {e.check_id for e in judged} == {
        "universal_is_extremal_case_A", "extremal_coefficient_formulas",
        "extremal_r_monotonicity", "k_monotonicity_per_branch", "case_B_mirrors_case_A",
        "extremal_dominance_characterization"}
    assert sorted(e.subject for e in judged if e.check_id == "k_monotonicity_per_branch") == [
        f"all m case={case} {slot}" for case in "AB" for slot in ("first", "second")]
    notes = [e for e in rep.entries if e.status == "info"]
    assert [e.subject for e in notes] == ["(m, r) = (2, 0)"]
    assert "4/3 exceeds first 5/4" in notes[0].note and "conservative" in notes[0].note


def test_extremal_r_monotonicity_brute_force():
    for m in range(1, 51):
        firsts = [extremal_first_coefficient(m, r) for r in range(m)]
        assert firsts == [bound_case_A(m, r, m - r).first.value for r in range(m)]
        assert all(x < y for x, y in zip(firsts, firsts[1:])), m


def test_k_monotonicity_per_branch_brute_force():
    # along k, adjacent coefficients with the same sign of 2A + 1 move one way:
    # case A does not rise, case B does not fall
    for m in range(1, 51):
        for r in range(m):
            ks = range(m - r, m + r + 1, 2)
            for bound, direction in ((bound_case_A, -1), (bound_case_B, +1)):
                rows = [bound(m, r, k) for k in ks]
                for slot in ("first", "second"):
                    coeffs = [getattr(row, slot) for row in rows]
                    for x, y in zip(coeffs, coeffs[1:]):
                        if x.two_a_plus_one * y.two_a_plus_one > 0:
                            assert direction * (y.value - x.value) >= 0, (m, r, slot)


def test_certificate_identities_hold_beyond_the_box():
    # the rows judge their identities on {0..4}^n and claim them on N^n by a
    # degree bound: every identity holds at every configuration with m <= 30,
    # and every factor whose sign a row reads is positive there
    for check_id, _, (n, configuration), identity, factors, _ in _certificates():
        seen = 0
        for point in product(range(30), repeat=n):
            m, r, k = configuration(*point)
            if m <= 30:
                assert identity(m, r, k), (check_id, m, r, k)
                assert all(factor(m, r) > 0 for factor in factors), (check_id, m, r)
                seen += 1
        assert seen == {1: 30, 2: 465, 3: 4960}[n]


def test_a_factor_that_is_not_positive_fails():
    box = (1, lambda a: (1 + a, 0, 1 + a))
    assert bounds._box_witness(box, lambda m, r, k: True, [lambda m, r: m + r]) == ""
    # zero at (m, r) = (1, 0); positive there but lowered by the r step
    for factor in (lambda m, r: m - 1, lambda m, r: 3 - r):
        assert (bounds._box_witness(box, lambda m, r, k: True, [factor])
                == "affine factor 0 is not positive")


def _scaled(variant):
    """closed_form_A with one variant scaled by (r+3)/(r+2)."""
    def closed_form(m, r, k, v):
        a = closed_form_A(m, r, k, v)
        return a * Fraction(r + 3, r + 2) if v == variant else a
    return closed_form


_UNIVERSAL, _EXTREMAL, _MIRROR, _DOMINANCE, _R, _K = (
    "universal_is_extremal_case_A all m", "extremal_coefficient_formulas all m k=m-r",
    "case_B_mirrors_case_A all m", "extremal_dominance_characterization all m k=m-r",
    "extremal_r_monotonicity all m", "k_monotonicity_per_branch all m case=")
# each control: the name patched in quatspin.bounds, its corruption, and the
# rows that must fail
CONTROLS = {
    "scaled ++": ("closed_form_A", _scaled("++"),
                  {_UNIVERSAL, _EXTREMAL, _MIRROR, _DOMINANCE, _K + "A first"}),
    "scaled --": ("closed_form_A", _scaled("--"),
                  {_EXTREMAL, _MIRROR, _DOMINANCE, _K + "A second"}),
    "scaled +-": ("closed_form_A", _scaled("+-"), {_MIRROR, _K + "B first"}),
    "scaled -+": ("closed_form_A", _scaled("-+"), {_MIRROR, _K + "B second"}),
    "first extremal formula off for r >= 3": (
        "extremal_first_coefficient",
        lambda m, r: extremal_first_coefficient(m, r) + (Fraction(1, 100) if r >= 3 else 0),
        {_EXTREMAL, _R}),
    "dominance threshold + 1": (
        "dominance_threshold", lambda r: dominance_threshold(r) + 1, {_DOMINANCE}),
}


@pytest.mark.parametrize("control", CONTROLS)
def test_each_certificate_fails_under_a_named_corruption(monkeypatch, control):
    name, corrupted, expected = CONTROLS[control]
    monkeypatch.setattr(bounds, name, corrupted)
    rep = bound_property_report()
    assert {f"{e.check_id} {e.subject}" for e in rep.failures()} == expected
    assert all(e.residual.startswith("(m, r, k) = ") for e in rep.failures())


def test_every_certificate_fails_under_some_control():
    judged = {f"{e.check_id} {e.subject}" for e in bound_property_report().entries
              if e.status != "info"}
    assert set().union(*(expected for _, _, expected in CONTROLS.values())) == judged
