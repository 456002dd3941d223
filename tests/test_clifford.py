import random
from fractions import Fraction

import pytest

from quatspin.clifford import (
    MAX_M_ENV,
    basis_vector,
    build_clifford_model,
    corrupt_gamma,
    rotated_action,
    vector_action,
)
from quatspin.errors import DimensionError, DomainError, ResourceLimitError
from quatspin.exact import DenseMatrix, ExactScalar
from quatspin.sparse import SparseMatrix


@pytest.fixture(scope="module")
def model2():
    return build_clifford_model(2)


@pytest.mark.parametrize("m", [1, 2])
def test_anticommutation_relations(m):
    model = build_clifford_model(m)
    ident = model.identity()
    for i, gi in enumerate(model.gamma):
        for j, gj in enumerate(model.gamma):
            anti = gi @ gj + gj @ gi
            if i == j:
                assert anti == ident.scale(-2)
            else:
                assert anti.is_zero()


def test_dimensions():
    for m in (1, 2, 3):
        model = build_clifford_model(m)
        assert model.n == 4 * m
        assert len(model.gamma) == 4 * m
        assert model.spinor_dim == 2 ** (2 * m)
        assert model.gamma[0].rows == model.spinor_dim


def test_gamma_entries_are_fourth_roots(model2):
    allowed = {ExactScalar(0), ExactScalar(1), ExactScalar(-1),
               ExactScalar(0, 1), ExactScalar(0, -1)}
    for g in model2.gamma:
        for i in range(g.rows):
            for j in range(g.cols):
                assert g[i, j] in allowed


def test_resource_cap():
    with pytest.raises(ResourceLimitError):
        build_clifford_model(5)
    with pytest.raises(DomainError):
        build_clifford_model(0)
    with pytest.raises(DomainError):
        build_clifford_model(2, kind="floats")


def test_resource_cap_env_override(monkeypatch):
    monkeypatch.setenv(MAX_M_ENV, "1")
    with pytest.raises(ResourceLimitError):
        build_clifford_model(2)
    monkeypatch.setenv(MAX_M_ENV, "not-a-number")
    with pytest.raises(DomainError):
        build_clifford_model(1)


def test_isotropic_vector_squares_to_zero(model2):
    # (e1 + i e2)^2 = 0: the complexified null vector
    coeffs = [0] * model2.n
    coeffs[0] = ExactScalar(1)
    coeffs[1] = ExactScalar(0, 1)
    a = vector_action(model2, SparseMatrix.from_rows([[c] for c in coeffs]))
    assert (a @ a).is_zero()


def test_action_squares_to_minus_norm(model2):
    rng = random.Random(13)
    for _ in range(5):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  for _ in range(model2.n)]
        v = SparseMatrix.from_rows([[c] for c in coeffs])
        a = vector_action(model2, v)
        norm2 = sum(c * c for c in coeffs)
        ident = model2.identity()
        assert a @ a == ident.scale(-norm2)


def test_action_linearity(model2):
    e0 = basis_vector(model2, 0)
    e1 = basis_vector(model2, 1)
    lhs = vector_action(model2, e0.scale(3) + e1.scale(ExactScalar(0, 2)))
    rhs = model2.gamma[0].scale(3) + model2.gamma[1].scale(ExactScalar(0, 2))
    assert lhs == rhs


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_rotated_action_is_the_action_of_the_product(kind):
    # any exact map, Gaussian rational entries, a coefficient that cancels
    # (row 0 of the map against v) and a zero column of the product
    model = build_clifford_model(2, kind=kind)
    rng = random.Random(7)
    n = model.n

    def entry():
        return ExactScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-2, 2))

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    rows[0] = [0] * n
    rows[0][:2] = [1, -1]
    rows[1] = [0] * n
    rotation = SparseMatrix.from_rows(rows)
    v = SparseMatrix.from_rows([[1], [1]] + [[entry()] for _ in range(n - 2)])
    for x in (v, basis_vector(model, 5), SparseMatrix.zeros(n, 1)):
        want = vector_action(model, rotation @ x)
        got = rotated_action(model, rotation, x)
        assert got == want
        assert got.fingerprint() == want.fingerprint()


def test_action_shape_checks(model2):
    with pytest.raises(DimensionError):
        vector_action(model2, SparseMatrix.zeros(3, 1))
    with pytest.raises(TypeError):
        vector_action(model2, DenseMatrix.zeros(model2.n, 1))
    ident = SparseMatrix.identity(model2.n)
    with pytest.raises(DimensionError):
        rotated_action(model2, ident, SparseMatrix.zeros(3, 1))
    with pytest.raises(TypeError):
        rotated_action(model2, ident, DenseMatrix.zeros(model2.n, 1))
    with pytest.raises(DomainError):
        basis_vector(model2, 8)


def test_corrupt_gamma_breaks_relations(model2):
    bad = corrupt_gamma(model2, 0)
    assert bad.gamma[0] == -model2.gamma[0]
    # the square still equals -1, but products with other generators flip sign
    g0, g1 = bad.gamma[0], bad.gamma[1]
    assert (g0 @ g1 + g1 @ g0).is_zero()  # anticommutation survives a sign flip
    assert bad.content_hash() != model2.content_hash()


def test_content_hash_deterministic():
    a = build_clifford_model(1)
    b = build_clifford_model(1)
    assert a.content_hash() == b.content_hash()


@pytest.mark.parametrize("m, kind, digest", [
    (1, "exact", "fc02a4d813ef31196a4faced14eac65b3077ee4da3ba6d9666469d59c3ed56d8"),
    (2, "exact", "c388f54a7c9e985024627b82d236b15fe13688a073d08797000fdb55e34435c8"),
    (1, "float", "ac1420d5fb55e68d01731a0bbb0c7ae393524e2747574666a46e194d3539520e"),
])
def test_model_hash_is_pinned(m, kind, digest):
    # both hashes read the nonzeros of each generator, the exact one its
    # numerators, the float one its complex128 values; a change to either
    # is a change of every report
    assert build_clifford_model(m, kind=kind).content_hash() == digest


def test_float_backend_model():
    model = build_clifford_model(1, kind="float")
    ident = model.identity()
    assert isinstance(ident, DenseMatrix)
    for gi in model.gamma:
        assert (gi @ gi + ident).max_abs() <= 1e-12
    # a vector is an exact column in both backends; its action is float
    act = vector_action(model, basis_vector(model, 1).scale(ExactScalar(0, 2)))
    assert isinstance(act, DenseMatrix)
    assert act == model.gamma[1].scale(2j)


def test_model_kind_is_read_off_the_generators():
    exact = build_clifford_model(1)
    assert exact.kind == "exact" and isinstance(exact.zeros(), SparseMatrix)
    flt = exact._replace(gamma=tuple(g.to_float() for g in exact.gamma))
    assert flt.kind == "float" and isinstance(flt.zeros(), DenseMatrix)
    assert flt.content_hash() == build_clifford_model(1, kind="float").content_hash()
