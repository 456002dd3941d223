from fractions import Fraction

import pytest

from quatspin.clifford import basis_vector, build_clifford_model, corrupt_gamma, vector_action
from quatspin.decomposition import build_world
from quatspin.errors import DomainError
from quatspin.exact import ExactScalar, SparseMatrix
from quatspin.quaternionic import (
    build_adapted_basis,
    build_kaehler_operators,
    build_standard_triple,
    epsilon,
    kaehler_form,
    sl2_generators,
    structure_report,
)


@pytest.fixture(scope="module")
def setup1():
    model = build_clifford_model(1)
    triple = build_standard_triple(model)
    ops = build_kaehler_operators(model, triple)
    return model, triple, ops


@pytest.fixture(scope="module")
def setup2():
    model = build_clifford_model(2)
    triple = build_standard_triple(model)
    ops = build_kaehler_operators(model, triple)
    return model, triple, ops


def test_quaternion_composition(setup1):
    _, triple, _ = setup1
    assert triple[1] @ triple[2] == triple[3]
    assert triple[2] @ triple[1] == -triple[3]
    for a in (1, 2, 3):
        assert triple[a] @ triple[a] == -SparseMatrix.identity(4)


def test_adaptedness(setup2):
    model, triple, _ = setup2
    for j in range(2 * model.m):
        assert triple[1] @ basis_vector(model, 2 * j) == basis_vector(model, 2 * j + 1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_triple_is_the_block_diagonal_reference(m):
    # J_a built as signed-permutation monomials is the block-diagonal matrix
    # of left multiplication by i, j, k on every line, entry for entry
    blocks = {1: [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
              2: [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
              3: [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]}
    triple = build_standard_triple(build_clifford_model(m))
    for a, block in blocks.items():
        reference = SparseMatrix.from_rows(
            [[block[s % 4][t % 4] if s // 4 == t // 4 else 0 for t in range(4 * m)]
             for s in range(4 * m)])
        assert triple[a] == reference, (m, a)
        assert triple[a].fingerprint() == reference.fingerprint(), (m, a)


def test_triple_index_domain(setup1):
    _, triple, ops = setup1
    with pytest.raises(DomainError):
        triple[0]
    with pytest.raises(DomainError):
        ops[4]


def test_weight_operator_is_pair_sum(setup1):
    # Omega_1 for m=1 must come out as g1 g2 + g3 g4
    model, triple, ops = setup1
    g = model.gamma
    assert ops[1] == g[0] @ g[1] + g[2] @ g[3]
    assert ops[1].trace() == ExactScalar(0)


def test_kaehler_commutator_table(setup2):
    _, _, ops = setup2
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            lhs = ops[a] @ ops[b] - ops[b] @ ops[a]
            c = ({1, 2, 3} - {a, b}).pop() if a != b else None
            if a == b:
                assert lhs.is_zero()
            else:
                assert lhs == ops[c].scale(4 * epsilon(a, b, c))


def test_kraines_commutes_with_weights(setup2):
    _, _, ops = setup2
    for a in (1, 2, 3):
        assert ops.kraines @ ops[a] == ops[a] @ ops.kraines


def test_sl2_ladder(setup1):
    _, _, ops = setup1
    o1, plus, minus = sl2_generators(ops)
    assert o1 @ plus - plus @ o1 == plus.scale(2)
    assert o1 @ minus - minus @ o1 == minus.scale(-2)
    assert plus @ minus - minus @ plus == o1


def test_casimir_scalar(setup1):
    model, _, ops = setup1
    o1, plus, minus = sl2_generators(ops)
    ident = model.identity()
    casimir = o1 @ o1
    for a, s in ((2, 1), (3, 1)):
        oa = ops[a].scale(ExactScalar(0, Fraction(1, 2)))
        casimir = casimir + oa @ oa
    lhs = casimir.scale(Fraction(1, 8))
    rhs = (ops.kraines - ident.scale(6 * model.m)).scale(Fraction(-1, 32))
    assert lhs == rhs


def test_adapted_basis_isotropy(setup2):
    model, triple, _ = setup2
    basis = build_adapted_basis(model, triple)
    assert len(basis.f) == 2 * model.m
    i_unit = ExactScalar(0, 1)
    for f, fbar in zip(basis.f, basis.f_bar):
        # J_1 f = i f and J_1 fbar = -i fbar
        assert triple[1] @ f == f.scale(i_unit)
        assert triple[1] @ fbar == fbar.scale(-i_unit)
        # isotropy of the Clifford action
        af = vector_action(model, f)
        assert (af @ af).is_zero()
        # f + fbar is the underlying real basis vector
        total = f + fbar
        assert total == basis_vector(model, 0) or not total.is_zero()


def test_structure_report_all_pass():
    rep = structure_report(build_world(build_clifford_model(1)))
    assert rep.ok
    counts = rep.counts()
    assert counts["fail"] == 0
    assert counts["pass"] > 20


def test_consistent_sign_flip_is_still_a_model():
    # rebuilding everything from a sign-flipped generator gives an equivalent
    # model (the flip extends to an algebra automorphism), so nothing fails
    assert structure_report(build_world(corrupt_gamma(build_clifford_model(1), 0))).ok


def test_structure_report_flags_tampered_generator():
    # a world assembled by hand with the operators of the clean generators
    # is an inconsistency: build_world never makes one
    clean = build_world(build_clifford_model(1))
    rep = structure_report(clean._replace(model=corrupt_gamma(clean.model, 0)))
    assert not rep.ok
    ids = {e.check_id for e in rep.failures()}
    assert "kaehler_rebuild" in ids
    witness = next(e for e in rep.failures() if e.check_id == "kaehler_rebuild")
    assert witness.residual != "0"


def test_structure_report_float_backend():
    rep = structure_report(build_world(build_clifford_model(1, kind="float")))
    assert rep.ok
