from fractions import Fraction

import pytest

from quatspin import exact
from quatspin.clifford import basis_vector, build_clifford_model, corrupt_gamma, \
    vector_action
from quatspin.decomposition import build_world
from quatspin.errors import DomainError, IdentityFailure
from quatspin.exact import ExactScalar
from quatspin.projectors import (
    ProjectorCalculus,
    closed_form_A,
    compute_A,
    constants_report,
    j_operator,
    p_minus,
    p_plus,
    verify_lemma_identities,
)
from quatspin.quaternionic import build_adapted_basis, q_minus, q_plus
from quatspin.report import residual_entry


def _world(m, kind="exact"):
    """model, triple, ops, adapted basis, dec and calculus of one world."""
    world = build_world(build_clifford_model(m, kind=kind))
    model, triple = world.model, world.triple
    return (model, triple, world.ops, build_adapted_basis(model, triple), world.dec,
            ProjectorCalculus(world))


def _corrupted_calculus(dec, model, index):
    """The calculus of model with gamma_index sign-flipped, over the stated dec."""
    return ProjectorCalculus(build_world(corrupt_gamma(model, index), dec=dec))


@pytest.fixture(scope="module")
def world1():
    return _world(1)


@pytest.fixture(scope="module")
def world2():
    return _world(2)


def test_weight_components_recover_adapted_basis(world1):
    model, triple, _, basis, _, _ = world1
    for j in range(2 * model.m):
        x = basis_vector(model, 2 * j)
        assert q_minus(triple, x) == basis.f[j]
        assert q_plus(triple, x) + q_minus(triple, x) == x
        # each component is a weight eigenvector of J_1: J_1 q^- = +i q^-
        qp = q_plus(triple, x)
        assert (triple[1] @ qp + qp.scale(ExactScalar(0, 1))).is_zero()
        qm = q_minus(triple, x)
        assert (triple[1] @ qm - qm.scale(ExactScalar(0, 1))).is_zero()


def test_weight_components_of_odd_vectors(world1):
    model, triple, _, _, _, _ = world1
    # e_{2j+1} = J_1 e_{2j}, so its components are -+i times those of e_{2j}
    for j in range(2 * model.m):
        even = basis_vector(model, 2 * j)
        odd = basis_vector(model, 2 * j + 1)
        assert q_plus(triple, odd) == \
            q_plus(triple, even).scale(ExactScalar(0, -1))
        assert q_minus(triple, odd) == \
            q_minus(triple, even).scale(ExactScalar(0, 1))


def test_degree_components_sum_to_action(world2):
    model, triple, ops, _, _, _ = world2
    for i in range(model.n):
        x = basis_vector(model, i)
        for r in range(model.m + 1):
            total = p_plus(model, triple, ops, r, x) \
                + p_minus(model, triple, ops, r, x)
            assert (total - vector_action(model, x)).is_zero()


def test_degree_component_rejects_negative_level(world1):
    model, triple, ops, _, _, _ = world1
    with pytest.raises(DomainError):
        p_plus(model, triple, ops, -1, basis_vector(model, 0))


def test_calculus_matches_direct_operators(world1):
    model, triple, ops, basis, _, calc = world1
    for j in range(2 * model.m):
        assert calc.act["f"][j] == vector_action(model, basis.f[j])
        assert calc.jop["fbar"][j] == j_operator(model, triple, ops, basis.f_bar[j])
        assert calc.p("f", 0, +1, j) == p_plus(model, triple, ops, 0, basis.f[j])
        assert calc.p("fbar", 1, -1, j) == p_minus(model, triple, ops, 1, basis.f_bar[j])


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", ["exact", "float"])
def test_rotated_actions_are_the_actions_of_the_rotated_vectors(m, kind):
    # act_j is read off the nonzeros of J_a and u_j; the reference forms
    # the product J_a u_j first.  a(J_1 u_j) is the phase -t i a(u_j) of
    # the weight shift t of u on the standard world
    calc = ProjectorCalculus(build_world(build_clifford_model(m, kind=kind)))
    model, triple = calc.world.model, calc.world.triple
    for u, t in (("f", -1), ("fbar", 1)):
        for j, x in enumerate(calc.vectors[u]):
            for a in (1, 2, 3):
                want = vector_action(model, triple[a] @ x)
                got = calc.act_j[u][a][j]
                assert got == want, (u, j, a)
                assert got.fingerprint() == want.fingerprint(), (u, j, a)
            assert calc.act_j[u][1][j] == calc.act[u][j].scale(ExactScalar(0, -t))


def test_calculus_product_count(world2, monkeypatch):
    # counts the term expansions (exact._product_terms) of one calculus at
    # m = 3 exact: a guard, free of timing.  Every rotated action a(J_a u_j)
    # is read off the nonzeros of J_a and u_j, so no product J_a u_j is
    # formed, and J(u_j) is still the one of the direct operators.
    model, triple, ops, basis, _, calc = world2
    for u, xs in (("f", basis.f), ("fbar", basis.f_bar)):
        for j, x in enumerate(xs):
            assert calc.jop[u][j] == j_operator(model, triple, ops, x), (u, j)
    world = build_world(build_clifford_model(3))
    calls = []
    expand = exact._product_terms

    def counted(*args):
        calls.append(args[-1])
        return expand(*args)

    monkeypatch.setattr(exact, "_product_terms", counted)
    ProjectorCalculus(world)
    assert len(calls) <= 26


def test_closed_form_values_by_hand():
    # m=1, r=0, k=1: numerators (-1)(2), (0)(3), (-1)(2), (0)(3) over 2
    assert closed_form_A(1, 0, 1, "--") == -1
    assert closed_form_A(1, 0, 1, "+-") == 0
    assert closed_form_A(1, 0, 1, "-+") == -1
    assert closed_form_A(1, 0, 1, "++") == 0
    # m=1, r=1, k=0: numerators (0)(2), (-2)(4), (0)(4), (0)(4) over 4
    assert closed_form_A(1, 1, 0, "--") == 0
    assert closed_form_A(1, 1, 0, "+-") == -2
    # m=2, r=1, k=1: a genuinely fractional pair
    assert closed_form_A(2, 1, 1, "--") == Fraction(-1, 2)
    assert closed_form_A(2, 1, 1, "+-") == Fraction(-5, 2)
    # worked examples at higher m
    assert closed_form_A(2, 0, 2, "--") == -2
    assert closed_form_A(3, 1, 2, "+-") == -3


def test_closed_form_domain_errors():
    with pytest.raises(DomainError):
        closed_form_A(2, 0, 2, "bogus")
    with pytest.raises(DomainError):
        closed_form_A(2, -1, 2, "--")


def test_computed_constants_match_closed_forms_m1(world1):
    model, _, _, _, dec, calc = world1
    for blk in dec.nonzero_blocks():
        for variant in ("--", "+-", "-+", "++"):
            got = compute_A(calc, blk.r, blk.k, variant)
            want = closed_form_A(model.m, blk.r, blk.k, variant)
            assert got == ExactScalar(want), (blk.r, blk.k, variant)


def test_constants_equal_the_per_vector_composition(world2):
    # reference: sum_j (left p)(right p) formed one adapted vector at a time
    model, triple, ops, basis, dec, calc = world2
    vectors = {"f": basis.f, "fbar": basis.f_bar}
    variants = {"--": (p_minus, +1, p_plus, "f", "fbar"),
                "+-": (p_plus, -1, p_minus, "f", "fbar"),
                "-+": (p_minus, +1, p_plus, "fbar", "f"),
                "++": (p_plus, -1, p_minus, "fbar", "f")}
    for blk in dec.nonzero_blocks():
        for variant, (left, shift, right, u, v) in variants.items():
            if blk.r + shift < 0:
                continue
            total = None
            for x, y in zip(vectors[u], vectors[v]):
                term = left(model, triple, ops, blk.r + shift, x) \
                    @ right(model, triple, ops, blk.r, y)
                total = term if total is None else total + term
            got = compute_A(calc, blk.r, blk.k, variant)
            assert total @ blk.projector == blk.projector.scale(got), (blk.r, blk.k, variant)


def test_worked_constant_value(world2):
    calc = world2[-1]
    assert compute_A(calc, 0, 2, "--") == ExactScalar(-2)


def test_compute_rejects_zero_block_and_bad_variant(world2):
    calc = world2[-1]
    with pytest.raises(DomainError):
        compute_A(calc, 0, 0, "--")  # off the weight lattice
    with pytest.raises(DomainError):
        compute_A(calc, 0, 2, "xx")


def test_top_degree_raising_composition_vanishes(world2):
    # at r = m the "--" constant is 0: there is no degree level above m
    calc = world2[-1]
    for k in (0, 2, 4):
        got = compute_A(calc, 2, k, "--")
        assert got == ExactScalar(0)
        assert closed_form_A(2, 2, k, "--") == 0


def test_constants_report_all_pass_m2(world2):
    calc = world2[-1]
    rep = constants_report(calc)
    assert rep.ok
    # 6 nonzero blocks x 4 variants
    assert rep.counts()["pass"] == 24


def test_constants_report_flags_corruption(world2):
    model, _, _, _, dec, _ = world2
    rep = constants_report(_corrupted_calculus(dec, model, 0))
    assert not rep.ok
    assert any(e.status == "fail" for e in rep.entries)


def test_lemma_suite_exact_m1(world1):
    rep = verify_lemma_identities(world1[-1])
    counts = rep.counts()
    assert rep.ok
    assert counts.get("fail", 0) == 0
    assert counts["pass"] > 100
    # every pass entry is an exact zero, not merely small
    assert all(e.residual == "0" for e in rep.entries if e.status == "pass")


def _adjoint_pairs(dec):
    """(b, t) for every pair of nonzero blocks b = (r, k), t = (r+1, k+1)."""
    nonzero = {(b.r, b.k): b for b in dec.nonzero_blocks()}
    return [(b, nonzero[b.r + 1, b.k + 1]) for b in nonzero.values()
            if (b.r + 1, b.k + 1) in nonzero]


def test_adjoint_pairing_is_minus_conjugate_vector(world1):
    *_, dec, calc = world1
    rows = [e for e in verify_lemma_identities(calc).entries
            if e.check_id == "block_adjoint_pairing"]
    # one certificate per (j, b -> t): the raising map is minus the adjoint
    # of the f-vector lowering map
    want = sorted(f"m=1 j={j} ({b.r},{b.k})->({t.r},{t.k})"
                  for j in range(calc.pairs) for b, t in _adjoint_pairs(dec))
    assert len(want) == 2
    assert sorted(e.subject for e in rows) == want
    assert all(e.status == "pass" and e.residual == "0" for e in rows)


def test_adjoint_rows_equal_the_direct_block_maps(world2):
    # the suite reads both block maps off the four-fold pieces; on a
    # corrupted model each residual must still be the one of
    # (P_t p_r^+(fbar_j) P_b)^H + P_b p_{r+1}^-(f_j) P_t
    model, _, _, _, dec, _ = world2
    bad_calc = _corrupted_calculus(dec, model, 0)
    got = {e.subject: e.residual
           for e in verify_lemma_identities(bad_calc).entries
           if e.check_id == "block_adjoint_pairing"}
    want = {}
    for j in range(bad_calc.pairs):
        for b, t in _adjoint_pairs(dec):
            pb, pt = b.projector, t.projector
            raising = pt @ bad_calc.p("fbar", b.r, +1, j) @ pb
            lowering = pb @ bad_calc.p("f", t.r, -1, j) @ pt
            subject = f"m=2 j={j} ({b.r},{b.k})->({t.r},{t.k})"
            want[subject] = residual_entry(
                "block_adjoint_pairing", subject,
                raising.hermitian() + lowering).residual
    assert got == want
    assert any(r != "0" for r in got.values())


def test_float_backend_constants_close():
    model, triple, ops, basis, dec, calc = _world(1, kind="float")
    got = compute_A(calc, 0, 1, "--")
    assert abs(got - (-1)) < 1e-9


def test_restriction_rejects_non_scalar_operator(world1):
    model, _, _, _, dec, _ = world1
    bad_calc = _corrupted_calculus(dec, model, 1)
    # the clean blocks are not invariant for the corrupted calculus
    with pytest.raises((IdentityFailure, AssertionError)):
        for blk in dec.nonzero_blocks():
            for variant in ("--", "+-"):
                got = compute_A(bad_calc, blk.r, blk.k, variant)
                want = closed_form_A(model.m, blk.r, blk.k, variant)
                assert got == ExactScalar(want)


def test_shift_rows_equal_the_direct_products(world2):
    # the suite reads the r- and k-shift images off the four-fold pieces;
    # on a corrupted model, where many rows fail, each residual must still
    # be the one of the direct image p_r^s(u_j) P_r or a(u_j) P_k
    model, _, _, _, dec, _ = world2
    bad_calc = _corrupted_calculus(dec, model, 0)
    got = {(e.check_id, e.subject): e.residual
           for e in verify_lemma_identities(bad_calc).entries
           if e.check_id in ("r_shift_projection", "k_shift_projection")}

    def outside(img, target):
        return img - target @ img if target is not None else img

    want = {}
    for u, t in (("f", -1), ("fbar", +1)):
        for j in range(2 * model.m):
            for r, pr in dec.r_projectors.items():
                for s, label in ((+1, "raise"), (-1, "lower")):
                    subject = f"m=2 j={j} r={r} {u} {label}"
                    img = bad_calc.p(u, r, s, j) @ pr
                    want["r_shift_projection", subject] = residual_entry(
                        "r_shift_projection", subject,
                        outside(img, dec.r_projectors.get(r + s))).residual
            for k, pk in dec.k_projectors.items():
                subject = f"m=2 j={j} k={k} {'raise' if t > 0 else 'lower'}"
                img = bad_calc.act[u][j] @ pk
                want["k_shift_projection", subject] = residual_entry(
                    "k_shift_projection", subject,
                    outside(img, dec.k_projectors.get(k + t))).residual
    assert got == want
    assert sum(r != "0" for r in got.values()) > len(got) // 4
