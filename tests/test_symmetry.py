"""The line-symmetry certificate, and the rows derived from it.

Derived rows must equal the rows computed directly, compared on (check_id,
subject, status, residual, note), wherever the certificate passes: on clean
worlds, on worlds rebuilt from a sign-flipped model, and on hand-built
worlds whose Kaehler operators are scaled or relabelled, where many rows
fail with nonzero residuals.  Where it fails (a sign-flipped generator list
over the stated decomposition, or that world given the clean operators by
hand), every row is computed directly.  Each claim of the certificate fails
under a named corruption with a positive residual.
"""

from dataclasses import replace

import pytest

from quatspin import exact as exact_module
from quatspin import symmetry as symmetry_module
from quatspin.clifford import build_clifford_model, corrupt_gamma
from quatspin.decomposition import build_world, decomposition_report
from quatspin.projectors import ProjectorCalculus, verify_lemma_identities
from quatspin.quaternionic import KaehlerOperators, kraines_form, structure_report
from quatspin.sparse import SparseMatrix
from quatspin.symmetry import (certify_line_symmetry, generator_orbits,
                               generator_pair_orbits, line_symmetries, vector_orbits)


def _rows(rep):
    return sorted((e.check_id, e.subject, e.status, e.residual, e.note)
                  for e in rep.entries)


def _derived_and_direct(world):
    """(certificate, rows with it, rows computed directly) of the three consumers."""
    calc = ProjectorCalculus(world)
    cert = certify_line_symmetry(world)
    derived = _rows(verify_lemma_identities(calc, cert)) \
        + _rows(decomposition_report(world, cert)) \
        + _rows(structure_report(world, cert))
    direct = _rows(verify_lemma_identities(calc)) \
        + _rows(decomposition_report(world)) \
        + _rows(structure_report(world))
    return cert, derived, direct


def _scaled(model, ops):
    omega = tuple(o.scale(2) for o in ops.omega)
    return KaehlerOperators(omega=omega, kraines=kraines_form(model, omega))


def _relabelled(model, ops):
    return KaehlerOperators(omega=(ops[1], ops[3], ops[2]), kraines=ops.kraines)


@pytest.mark.parametrize("kind", ["exact", "float"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_derived_rows_equal_direct_rows(m, kind):
    model = build_clifford_model(m, kind=kind)
    world = build_world(model)
    cert, derived, direct = _derived_and_direct(world)
    assert cert.ok and len(cert.report.entries) == 4 * m
    assert vector_orbits(cert, world) == [list(range(2 * m))]
    assert generator_orbits(cert, world) == \
        [list(range(0, 4 * m, 2)), list(range(1, 4 * m, 2))]
    # generator pairs within a line: {00, 22}, {11, 33}, {01, 23}, {02},
    # {03, 12}, {13}; across two lines: even-even, even-odd and odd-odd
    pairs = generator_pair_orbits(cert, world)
    assert len(pairs) == (6 if m == 1 else 9)
    assert sorted(pair for orbit in pairs for pair in orbit) == \
        [(i, j) for i in range(4 * m) for j in range(i, 4 * m)]
    assert derived == direct
    assert all(row[2] == "pass" for row in direct if row[0] != "weight_orientation")

    # the same holds where the certificate passes and many rows fail: a
    # world assembled by hand with the Kaehler operators doubled, or with
    # Omega_2 and Omega_3 exchanged; these fail two lemma families that no
    # corruption of the generator list fails
    for wrong, witnesses in (
            (_scaled(model, world.ops),
             {"adapted_basis_product_sums", "mixed_product_kaehler_form"}),
            (_relabelled(model, world.ops), {"mixed_product_kaehler_form"})):
        cert, derived, direct = _derived_and_direct(replace(world, ops=wrong))
        assert cert.ok
        assert sum(row[2] == "fail" for row in direct) > 30 * m
        assert witnesses <= {row[0] for row in direct if row[2] == "fail"}
        assert derived == direct


@pytest.mark.parametrize("index", range(8))
def test_rebuilt_flipped_world_derives_the_direct_rows(index):
    cert, derived, direct = _derived_and_direct(
        build_world(corrupt_gamma(build_clifford_model(2), index)))
    assert cert.ok
    assert derived == direct


@pytest.mark.parametrize("index", [0, 3, 4, 7])
def test_flipped_model_with_a_clean_decomposition_fails_the_certificate(index):
    clean = build_world(build_clifford_model(2))
    flipped = build_world(corrupt_gamma(clean.model, index), dec=clean.dec)
    # the flipped generator list over the stated decomposition (verify
    # --flip-gamma), then that world given the clean operators by hand
    for world, note in ((flipped, "fails at decomposition Kraines"),
                        (replace(flipped, ops=clean.ops), "fails at Omega_1")):
        cert, derived, direct = _derived_and_direct(world)
        failures = cert.report.failures()
        assert failures and all(e.subject.endswith("operators") for e in failures)
        assert all(e.note == note and float(e.residual) > 0 for e in failures)
        assert vector_orbits(cert, world) == [[j] for j in range(4)]
        assert len(generator_pair_orbits(cert, world)) == 36
        assert derived == direct


def test_a_certificate_covers_only_the_objects_it_was_made_on():
    model = build_clifford_model(2)
    world = build_world(model)
    cert = certify_line_symmetry(world)
    singletons = [[j] for j in range(4)]
    every_pair = [[(i, j)] for i in range(8) for j in range(i, 8)]
    # equal worlds that are other objects: rebuilt, over the same
    # decomposition, or copied field by field
    for other in (build_world(model), build_world(model, dec=world.dec), replace(world)):
        assert vector_orbits(cert, other) == singletons
        assert generator_orbits(cert, other) == [[c] for c in range(8)]
        assert generator_pair_orbits(cert, other) == every_pair
    assert vector_orbits(None, world) == singletons
    assert generator_orbits(None, world) == [[c] for c in range(8)]
    assert generator_pair_orbits(None, world) == every_pair


def _failed(cert, claim):
    """The failing rows of one claim; each must carry a positive residual."""
    rows = [e for e in cert.report.failures() if e.subject.endswith(claim)]
    assert all(float(e.residual) > 0 for e in rows), rows
    return rows


def test_a_non_clifford_generator_fails_every_claim():
    # gamma_0 -> gamma_0 gamma_1 still squares to -1 but commutes with
    # gamma_2: the right-j lift becomes singular
    clean = build_world(build_clifford_model(2))
    gamma = list(clean.model.gamma)
    gamma[0] = gamma[0] @ gamma[1]
    cert = certify_line_symmetry(
        build_world(replace(clean.model, gamma=tuple(gamma)), dec=clean.dec))
    assert not cert.ok
    for claim in ("monomial", "unitary", "generators", "operators"):
        assert _failed(cert, claim), claim
    assert _failed(cert, "generators")[0].note == "fails at gamma_0"
    assert _failed(cert, "operators")[0].note == "fails at Omega_1"


def test_a_corrupted_omega_2_fails_only_the_commutation():
    world = build_world(build_clifford_model(2))
    ops = world.ops
    world = replace(world, ops=KaehlerOperators(
        omega=(ops[1], ops[2] + world.model.gamma[0], ops[3]), kraines=ops.kraines))
    cert = certify_line_symmetry(world)
    assert [e.subject for e in cert.report.failures()] == \
        ["m=2 right-j line=0 operators", "m=2 swap lines=0,1 operators"]
    assert all(e.note == "fails at Omega_2" for e in _failed(cert, "operators"))
    assert vector_orbits(cert, world) == [[j] for j in range(4)]


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_corrupted_lifts_fail_their_claims(kind, monkeypatch):
    model = build_clifford_model(2, kind=kind)
    world = build_world(model)
    right_j, swap = line_symmetries(model)
    sigma = list(right_j.signed_permutation)
    sigma[0] = (2, 1)
    g0, g2 = model.gamma[0], model.gamma[2]
    reflection = tuple((c, -1 if c in (0, 2) else 1) for c in range(8))
    cases = [
        # a stated sign that S does not realise
        (replace(right_j, signed_permutation=tuple(sigma)), {"generators": "gamma_0"}),
        # 2S: no unit entries, S^H S = 4I; the linear relations still hold
        (replace(right_j, matrix=right_j.matrix.scale(2)),
         {"monomial": "", "unitary": ""}),
        # gamma_0 gamma_2 lifts the half turn in the plane (e_0, e_2), stated
        # correctly, which does not commute with the triple
        (replace(right_j, matrix=g0 @ g2, signed_permutation=reflection),
         {"generators": "J_1", "operators": "Omega_1"}),
    ]
    for lift, claims in cases:
        monkeypatch.setattr(symmetry_module, "line_symmetries",
                            lambda model, lift=lift: (lift, swap))
        cert = certify_line_symmetry(world)
        failed = {e.subject.split()[-1]: e.note for e in cert.report.failures()}
        assert failed == {claim: note and f"fails at {note}"
                          for claim, note in claims.items()}, lift.name
        for claim in claims:
            assert _failed(cert, claim)
        assert vector_orbits(cert, world) == [[j] for j in range(4)]


def test_line_symmetry_product_count(monkeypatch):
    # counts the term expansions, one per product or fused sum of products,
    # that the two consumers make at m = 3 exact (796 and 284 binary
    # products when every row is computed directly): a guard, free of
    # timing, on the rows derived from j = 0 and from the generators 0 and 1
    world = build_world(build_clifford_model(3))
    calc = ProjectorCalculus(world)
    cert = certify_line_symmetry(world)
    calls = []
    expand = exact_module._product_terms

    def counted(*args):
        calls.append(args[-1])
        return expand(*args)

    monkeypatch.setattr(exact_module, "_product_terms", counted)
    assert verify_lemma_identities(calc, cert).ok
    # 2 of them form a(J_1 u_0) from the triple for jop_adapted_expansion
    assert len(calls) <= 148
    calls.clear()
    assert decomposition_report(world, cert).ok
    assert len(calls) <= 64


@pytest.mark.parametrize("m", [1, 2, 3])
def test_rho_is_the_signed_permutation_reference(m, monkeypatch):
    # each lift's rho, built as a monomial, is the matrix with sign s_c at
    # (sigma(c), c), entry for entry
    world = build_world(build_clifford_model(m))
    rhos = []
    fused_sum = symmetry_module.fused_sum

    def spy(products=(), terms=()):
        rhos.extend(a for _, a, b in products if b is world.triple[1])
        return fused_sum(products, terms)

    monkeypatch.setattr(symmetry_module, "fused_sum", spy)
    certificate = certify_line_symmetry(world)
    assert certificate.ok and len(rhos) == len(certificate.lifts)
    n = world.model.n
    for rho, lift in zip(rhos, certificate.lifts):
        grid = [[0] * n for _ in range(n)]
        for c, (target, sign) in enumerate(lift.signed_permutation):
            grid[target][c] = sign
        reference = SparseMatrix.from_rows(grid)
        assert rho == reference, lift.name
        assert rho.fingerprint() == reference.fingerprint(), lift.name
