import math
from fractions import Fraction

import numpy as np
import pytest

from quatspin import exact as exact_module
from quatspin.errors import DimensionError, DomainError, SpectrumError
from quatspin.exact import ExactScalar, certify_eigenprojector, lagrange_projector
from quatspin.quaternionic import epsilon
from quatspin.so3 import (
    _FIXED_QUATERNIONS,
    Rotation,
    RotationSearch,
    _rotation_defect,
    build_irrep,
    check_rotation,
    find_rotation_with_top_component,
    highest_weight_component,
    identity_rotation,
    irrep_report,
    random_rotation,
    random_vector,
    rotated_generator,
    rotation_from_quaternion,
    top_weight_projector,
)
from quatspin.sparse import SparseMatrix


def _comm(a, b):
    return a @ b - b @ a


def haar_rotation(rng):
    """A Haar rotation: the exact rotation of four standard normals, whose
    Fractions have large numerators and denominators."""
    return rotation_from_quaternion(*rng.standard_normal(4))


def normal_vector(rng, dim):
    """dim complex normals, read exactly as Gaussian rationals."""
    return [ExactScalar(Fraction(float(a)), Fraction(float(b)))
            for a, b in rng.standard_normal((dim, 2))]


def test_generator_matrices_r1():
    ir = build_irrep(1)
    assert ir.dim == 2 and ir.weights() == [1, -1]
    assert ir[1][0, 0] == ExactScalar(1) and ir[1][1, 1] == ExactScalar(-1)
    assert ir[2][0, 1] == ExactScalar(1) and ir[2][1, 0] == ExactScalar(1)
    assert ir[3][0, 1] == ExactScalar(0, -1) and ir[3][1, 0] == ExactScalar(0, 1)
    assert ir[1][0, 1] == ExactScalar(0) and ir[2][0, 0] == ExactScalar(0)


def test_commutators_exact_up_to_r50():
    for r in range(51):
        ir = build_irrep(r)
        for a, b in ((1, 2), (2, 3), (3, 1)):
            expected = SparseMatrix.zeros(ir.dim, ir.dim)
            for c in (1, 2, 3):
                eps = epsilon(a, b, c)
                if eps:
                    expected = expected + ir[c].scale(ExactScalar(0, 2 * eps))
            assert (_comm(ir[a], ir[b]) - expected).is_zero(), (r, a, b)


def test_casimir_scalar():
    for r in range(13):
        ir = build_irrep(r)
        casimir = (ir[1] @ ir[1] + ir[2] @ ir[2] + ir[3] @ ir[3]).scale(Fraction(1, 8))
        target = SparseMatrix.identity(ir.dim).scale(Fraction(r * (r + 2), 8))
        assert (casimir - target).is_zero(), r
    # r = 2: the scalar is exactly 1
    ir2 = build_irrep(2)
    c2 = (ir2[1] @ ir2[1] + ir2[2] @ ir2[2] + ir2[3] @ ir2[3]).scale(Fraction(1, 8))
    assert (c2 - SparseMatrix.identity(3)).is_zero()


def test_weight_diagonal_and_trivial_irrep():
    ir = build_irrep(4)
    assert ir.weights() == [4, 2, 0, -2, -4]
    for s, w in enumerate(ir.weights()):
        assert ir[1][s, s] == ExactScalar(w)
    ir0 = build_irrep(0)
    assert ir0.dim == 1
    for a in (1, 2, 3):
        assert ir0[a].is_zero()


def test_build_irrep_domain_errors():
    with pytest.raises(DomainError):
        build_irrep(-1)
    # irreps have one kind: the exact one
    assert build_irrep(2, kind="exact").h == build_irrep(2).h
    for kind in ("symbolic", "float"):
        with pytest.raises(DomainError):
            build_irrep(2, kind=kind)
    with pytest.raises(DomainError):
        build_irrep(2)[4]


def test_rotation_from_quaternion_oracles():
    g = rotation_from_quaternion(0, 0, 0, 1)  # pi about axis 3
    assert g.entries == ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
    gy = rotation_from_quaternion(1, 0, 1, 0)  # pi/2 about axis 2
    assert gy.entries == ((0, 0, 1), (0, 1, 0), (-1, 0, 0))
    # the formula is homogeneous in the quaternion
    assert rotation_from_quaternion(2, 4, 4, 0).entries == \
        rotation_from_quaternion(1, 2, 2, 0).entries
    with pytest.raises(DomainError):
        rotation_from_quaternion(0, 0, 0, 0)


def test_rotation_validity_checks():
    check_rotation(identity_rotation())
    rng = np.random.default_rng(11)
    # integer and Haar quaternions give exact rotations, certified exactly
    for draw in (random_rotation, haar_rotation):
        for _ in range(20):
            g = draw(rng)
            assert all(isinstance(v, Fraction) for row in g.entries for v in row)
            check_rotation(g)
    shear = Rotation(((Fraction(1), Fraction(1), Fraction(0)),
                      (Fraction(0), Fraction(1), Fraction(0)),
                      (Fraction(0), Fraction(0), Fraction(1))))
    with pytest.raises(DomainError):
        check_rotation(shear)


def test_rotations_are_exact():
    # a float component is read exactly, as Fraction(float)
    g = rotation_from_quaternion(0.5, 0.25, 0, 0)
    assert g.entries == rotation_from_quaternion(2, 1, 0, 0).entries
    assert rotation_from_quaternion(1, 0, 0, 0, kind="exact").entries == \
        identity_rotation().entries
    with pytest.raises(DomainError):
        rotation_from_quaternion(1, 0, 0, 0, kind="float")
    # a numpy integer is read as a Python integer: 2^66 does not wrap
    big = rotation_from_quaternion(np.int64(2**33), 1, 0, 0)
    assert big.entries == rotation_from_quaternion(2**33, 1, 0, 0).entries
    check_rotation(big)
    # a Haar rotation keeps its draws: the rotation of the same four normals
    q = np.random.default_rng(5).standard_normal(4)
    drawn = haar_rotation(np.random.default_rng(5))
    assert drawn.entries == rotation_from_quaternion(*(Fraction(float(c)) for c in q)).entries
    # the sampler has one kind
    with pytest.raises(TypeError):
        random_rotation(np.random.default_rng(5), "float")


def fraction_defect(g):
    """Reference: the defects summed entry by entry in the rotation's arithmetic."""
    e = g.entries
    dev = 0
    for i in range(3):
        for j in range(3):
            dot = sum(e[k][i] * e[k][j] for k in range(3))
            dev = max(dev, abs(dot - (1 if i == j else 0)))
    det = (e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
           - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
           + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0]))
    return dev, abs(det - 1)


def corrupted_rotations():
    """A shear, a reflection and a rotation with one entry moved."""
    g = rotation_from_quaternion(2, 3, 6, 0)
    moved = [list(row) for row in g.entries]
    moved[1][2] += Fraction(1, 7)
    grid = (((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, -1)))
    return [Rotation(tuple(tuple(Fraction(x) for x in row) for row in rows))
            for rows in grid] + [Rotation(tuple(map(tuple, moved)))]


def test_rotation_defect_matches_the_entrywise_reference():
    rng = np.random.default_rng(17)
    rotations = [rotation_from_quaternion(*(int(x) for x in q))
                 for q in rng.integers(-9, 10, size=(60, 4)) if q.any()][:50]
    assert len(rotations) == 50
    rotations += [haar_rotation(rng) for _ in range(10)]
    for g in rotations + corrupted_rotations():
        assert _rotation_defect(g) == fraction_defect(g), g.entries
    for g in corrupted_rotations():
        dev, ddet = _rotation_defect(g)
        assert isinstance(dev, Fraction) and isinstance(ddet, Fraction)


def test_check_rotation_rejects_each_corruption():
    for g in corrupted_rotations():
        with pytest.raises(DomainError, match="special orthogonal"):
            check_rotation(g)


def test_rotated_generator_oracles():
    for r in (1, 2, 3):
        ir = build_irrep(r)
        assert (rotated_generator(ir, identity_rotation()) - ir[1]).is_zero()
        flipped = rotated_generator(ir, rotation_from_quaternion(0, 0, 0, 1))
        assert (flipped + ir[1]).is_zero()
        # pi/2 about axis 2 carries H1 to H3
        assert (rotated_generator(ir, rotation_from_quaternion(1, 0, 1, 0))
                - ir[3]).is_zero()
    with pytest.raises(DomainError):
        rotated_generator(build_irrep(1), Rotation(((1, Fraction(1, 2), 0),
                                                    (0, 1, 0), (0, 0, 1))))
    # an irrep is its highest weight, dimension and exact generators
    ir = build_irrep(4)
    assert not hasattr(ir, "kind")
    assert all(isinstance(h, SparseMatrix) for h in ir.h)


def test_rotated_generator_spectrum_randomized():
    rng = np.random.default_rng(23)
    ir = build_irrep(5)
    for _ in range(10):
        gen = rotated_generator(ir, haar_rotation(rng)).to_float()
        vals = np.linalg.eigvals(gen.to_complex_array())
        assert np.max(np.abs(vals.imag)) < 1e-9
        assert np.allclose(sorted(vals.real), sorted(ir.weights()), atol=1e-9)
        assert abs(gen.trace()) < 1e-12


def test_highest_weight_component_oracles():
    ir = build_irrep(1)
    e = identity_rotation()
    assert highest_weight_component(ir, e, [1, 0]) == pytest.approx(1.0)
    assert highest_weight_component(ir, e, [0, 1]) == pytest.approx(0.0, abs=1e-15)
    gy = rotation_from_quaternion(1, 0, 1, 0)
    mag = highest_weight_component(ir, gy, [0, 1])
    assert mag * mag == pytest.approx(0.5, abs=1e-12)
    # coordinates are a sequence: a column of either backend is refused
    col = SparseMatrix.from_rows([[0], [1]])
    for x in (col, col.to_float()):
        with pytest.raises(TypeError, match="sequence"):
            highest_weight_component(ir, gy, x)
    # any exact coordinate sequence gives the same magnitude; a float
    # coordinate is no exact entry
    assert highest_weight_component(ir, gy, (Fraction(0), ExactScalar(1))) == mag
    with pytest.raises(TypeError):
        highest_weight_component(ir, gy, [0.0, 1.0])
    with pytest.raises(DomainError):
        highest_weight_component(ir, e, [0, 0])
    with pytest.raises(DimensionError):
        highest_weight_component(ir, e, [1, 0, 0])


def test_search_accepts_identity_for_highest_weight_vector():
    for r in (1, 3, 6):
        ir = build_irrep(r)
        v = [1] + [0] * r
        out = find_rotation_with_top_component(ir, v)
        assert out.found and out.samples_used == 1
        assert out.rotation.entries == identity_rotation().entries
        assert out.magnitude == pytest.approx(1.0)


def test_sample_zero_is_decided_from_the_top_coordinate():
    # v_0 = 3 + 4i: the identity is accepted with magnitude |v_0| = 5
    # whatever the other coordinates
    for top in (ExactScalar(3, 4), Fraction(-5), 5):
        out = find_rotation_with_top_component(build_irrep(2), [top, 1, 0], seed=3)
        assert out.found and out.samples_used == 1
        assert out.rotation.entries == identity_rotation().entries
        assert out.magnitude == 5.0
    # v_0 = 0: sample 1 is the first draw of the generator seeded with (3, r)
    out = find_rotation_with_top_component(build_irrep(2), [0, 1, 2], seed=3)
    assert out.found and out.samples_used == 2
    assert out.rotation.entries == random_rotation(np.random.default_rng([3, 2])).entries
    assert out.rotation.entries == (
        (Fraction(2, 3), Fraction(-22, 39), Fraction(-19, 39)),
        (Fraction(1, 3), Fraction(-14, 39), Fraction(34, 39)),
        (Fraction(-2, 3), Fraction(-29, 39), Fraction(-2, 39)))


def test_search_escapes_vanishing_identity_component():
    # the lowest-weight vector has exactly zero top component at the identity,
    # so the search must move to a non-identity rotation
    ir = build_irrep(1)
    out = find_rotation_with_top_component(ir, [0, 1], seed=5)
    assert out.found and out.samples_used >= 2
    assert out.rotation.entries != identity_rotation().entries
    assert out.magnitude > 0
    # exact mode accepted on exact nonzero-ness, on an exact rotation
    assert all(isinstance(x, Fraction) for row in out.rotation.entries for x in row)


def test_search_is_deterministic():
    ir = build_irrep(2)
    a = find_rotation_with_top_component(ir, [0, 0, 1], seed=9)
    b = find_rotation_with_top_component(ir, [0, 0, 1], seed=9)
    assert a.samples_used == b.samples_used
    assert a.magnitude == b.magnitude
    assert a.rotation.entries == b.rotation.entries
    assert a.seed == b.seed == 9


def test_search_float_random_vectors():
    # complex normals read exactly: large Gaussian rationals
    rng = np.random.default_rng(31)
    for r in range(1, 7):
        ir = build_irrep(r)
        for trial in range(10):
            # v_0 = 0 rules out the identity, so the search samples rotations
            v = [0] + normal_vector(rng, r)
            out = find_rotation_with_top_component(ir, v, budget=200,
                                                   seed=100 * r + trial)
            assert out.found, (r, trial)
            assert out.samples_used >= 2
            assert out.magnitude > 0


def test_search_exact_integer_vectors():
    rng = np.random.default_rng(41)
    for r in range(1, 5):
        ir = build_irrep(r)
        v = random_vector(rng, ir.dim)
        out = find_rotation_with_top_component(ir, v, budget=50, seed=r)
        assert out.found
        assert out.magnitude > 0


def test_search_exhaustion_reports_best_candidate():
    # coordinate 0 of [0, 1] is zero, so the only sample, the identity, fails
    ir = build_irrep(1)
    out = find_rotation_with_top_component(ir, [0, 1], budget=1, seed=2)
    assert not out.found
    assert out.samples_used == 1
    assert out.rotation.entries == identity_rotation().entries
    assert out.magnitude == 0


def as_column(v):
    return SparseMatrix.from_rows([[x] for x in v])


def test_search_checks_its_coordinates():
    ir = build_irrep(2)
    with pytest.raises(DimensionError):
        find_rotation_with_top_component(ir, [1, 0])
    with pytest.raises(DomainError):
        find_rotation_with_top_component(ir, [0, 0, 0])
    with pytest.raises(DomainError):
        find_rotation_with_top_component(ir, iter([0, 0, 0]))
    # a column of either backend is no coordinate sequence
    for col in (as_column([1, 0, 0]), as_column([1, 0, 0]).to_float()):
        with pytest.raises(TypeError, match="sequence"):
            find_rotation_with_top_component(ir, col)
    # a float coordinate, finite or not, is no exact entry, wherever it sits
    for bad in ([1, 0, 0.5], [0.0, 1, 0], [0, 1, 2j], [math.nan, 1, 0],
                [0, math.inf, 0], [0, 1, complex(0, -math.inf)], [np.int64(1), 0, 0]):
        with pytest.raises(TypeError, match="exact entries"):
            find_rotation_with_top_component(ir, bad, budget=5)
    # a coordinate far below any float tolerance is not zero
    out = find_rotation_with_top_component(ir, [Fraction(1, 10**40), 0, 0], budget=2)
    assert out.found and out.magnitude == 1e-40


def test_search_gives_the_same_outcome_for_any_coordinate_sequence():
    rng = np.random.default_rng(43)
    cases = 0
    # small integers and complex normals read exactly
    for draw in (random_vector, normal_vector):
        for r in range(6):
            ir = build_irrep(r)
            for budget in (1, 2, 50):
                for trial in range(4):
                    v = draw(rng, ir.dim)
                    if trial % 2 and r:
                        v[0] = 0
                        v[-1] = v[-1] or 1
                    seed = 10 * r + trial
                    outs = [find_rotation_with_top_component(ir, x, budget=budget,
                                                             seed=seed)
                            for x in (v, iter(v), tuple(v))]
                    fields = [(o.found, o.rotation.entries, repr(o.magnitude),
                               o.samples_used, o.seed) for o in outs]
                    assert all(isinstance(o, RotationSearch) for o in outs)
                    assert fields[0] == fields[1] == fields[2], (draw, r, budget, v)
                    cases += 1
    assert cases == 2 * 6 * 3 * 4


def test_search_domain_errors():
    ir = build_irrep(1)
    with pytest.raises(DomainError):
        find_rotation_with_top_component(ir, [1, 0], budget=0)
    with pytest.raises(DomainError):
        find_rotation_with_top_component(ir, [0, 0])


def test_irrep_report_structure():
    rep = irrep_report(6)
    assert rep.ok
    assert rep.counts()["fail"] == 0
    ids = {e.check_id for e in rep.entries}
    assert ids == {"ladder_relations", "generator_commutators", "casimir_scalar",
                   "weight_spectrum", "rotated_generator_spectrum",
                   "rotated_generator_trace"}
    notes = [e.note for e in rep.entries if e.check_id == "generator_commutators"]
    assert all("explicit i" in n for n in notes)


def test_top_weight_projector_rejects_a_corrupted_generator():
    ir = build_irrep(4)
    gen = rotated_generator(ir, rotation_from_quaternion(2, 3, 6, 0))
    p = top_weight_projector(ir, gen)
    assert p @ p == p and p.trace() == ExactScalar(1)
    with pytest.raises(TypeError, match="exact"):
        top_weight_projector(ir, gen.to_float())
    bump = SparseMatrix.from_rows([[1 if (s, t) == (0, 1) else 0
                                    for t in range(ir.dim)] for s in range(ir.dim)])
    with pytest.raises(SpectrumError, match="eigen-equation"):
        top_weight_projector(ir, gen + bump)


def lagrange_reference(ir, gen):
    """The Lagrange product over the stated spectrum, certified by its eigen-equation."""
    p = lagrange_projector(gen, ir.r, ir.weights())
    certify_eigenprojector(gen, ir.r, p)
    return p


AXIS_QUATERNIONS = ((1, 0, 0, 0), (3, 2, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1))


def certificate_quaternions(r):
    rng = np.random.default_rng([59, r])
    drawn = [tuple(int(x) for x in q) for q in rng.integers(-9, 10, size=(40, 4))
             if q.any()][:30]
    assert len(drawn) == 30
    return drawn + list(AXIS_QUATERNIONS) + list(_FIXED_QUATERNIONS)


@pytest.mark.parametrize("r", range(11))
def test_top_weight_projector_equals_the_lagrange_product(r):
    ir = build_irrep(r)
    for q in certificate_quaternions(r):
        gen = rotated_generator(ir, rotation_from_quaternion(*q))
        assert top_weight_projector(ir, gen) == lagrange_reference(ir, gen), q


def unit(n, i, j, value=1):
    return SparseMatrix.from_rows([[value if (s, t) == (i, j) else 0 for t in range(n)]
                                   for s in range(n)])


@pytest.mark.parametrize("r", range(1, 11))
def test_top_weight_projector_refuses_each_corruption(r):
    # a bump on an off-diagonal, a moved diagonal entry, one zeroed band
    # entry and an entry off the three bands.  On a random rotation the
    # continuant refuses the spectrum; on an axis rotation (gen = +-H1) a
    # bump or an off-band entry leaves a triangular matrix with the right
    # spectrum, refused because it is no rotated generator
    ir = build_irrep(r)
    n = ir.dim
    for q in certificate_quaternions(r)[:5] + list(AXIS_QUATERNIONS):
        gen = rotated_generator(ir, rotation_from_quaternion(*q))
        corrupted = [gen + unit(n, 0, 1), gen + unit(n, r, r)]
        if gen[r, r - 1]:  # the axis rotations leave the bands zero
            corrupted.append(gen - unit(n, r, r - 1, gen[r, r - 1]))
        if n > 2:
            corrupted.append(gen + unit(n, 0, 2))
        for bad in corrupted:
            with pytest.raises(SpectrumError, match="eigen-equation"):
                top_weight_projector(ir, bad)


def test_a_repeated_eigenvalue_is_refused():
    # diag(2, 2, -2) vanishes on every Lagrange factor's complement, so the
    # Lagrange product passes its eigen-equation as a rank-2 "projector";
    # the continuant sees det(0 - H) = 8, not 0
    ir = build_irrep(2)
    gen = SparseMatrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, -2]])
    assert lagrange_reference(ir, gen).trace() == ExactScalar(2)
    with pytest.raises(SpectrumError, match="eigen-equation fails for 0"):
        top_weight_projector(ir, gen)
    with pytest.raises(DimensionError):
        top_weight_projector(ir, SparseMatrix.identity(2))


def reference_search(ir, v, budget, seed):
    """The search with every sample judged by the Lagrange projector's norm."""
    col = SparseMatrix.from_rows([[x] for x in v])
    rng = np.random.default_rng([seed, ir.r])
    best_mag, best_g = None, None
    for i in range(budget):
        g = identity_rotation() if i == 0 else random_rotation(rng)
        norm2 = (lagrange_reference(ir, rotated_generator(ir, g)) @ col).frobenius_norm2()
        mag = math.sqrt(float(norm2))
        if norm2 != 0:
            return True, g.entries, repr(mag), i + 1
        if best_mag is None or mag > best_mag:
            best_mag, best_g = mag, g
    return False, best_g.entries, repr(best_mag), budget


def search_vectors(r):
    """40 seeded vectors with v_0 = 0 (r >= 1); every fourth has rational entries."""
    rng = np.random.default_rng([61, r])
    out = []
    for trial in range(40):
        v = random_vector(rng, r + 1)
        if r:
            v[0] = 0
            v[-1] = v[-1] or 1
        if trial % 4 == 3:
            v = [ExactScalar(Fraction(x, 3), Fraction(trial - x, 7)) for x in v]
        out.append(v)
    return out


@pytest.mark.parametrize("r", range(11))
def test_search_matches_the_lagrange_reference(r):
    ir = build_irrep(r)
    for trial, v in enumerate(search_vectors(r)):
        seed = 1000 + trial
        want = reference_search(ir, v, 50, seed)
        for x in (v, tuple(v)):
            out = find_rotation_with_top_component(ir, x, budget=50, seed=seed)
            assert (out.found, out.rotation.entries, repr(out.magnitude),
                    out.samples_used) == want, (r, trial)
            assert repr(highest_weight_component(ir, out.rotation, x)) == want[2]


def test_top_weight_projector_product_count(monkeypatch):
    # counts the term expansions (exact._product_terms), one per product or
    # fused sum of products that does work: a guard on the continuant
    # certificate and the fused sums of irrep_report, free of timing
    calls = []
    expand = exact_module._product_terms

    def counted(*args):
        calls.append(args[-1])
        return expand(*args)

    ir = build_irrep(10)
    gen = rotated_generator(ir, rotation_from_quaternion(2, 3, 6, 0))
    monkeypatch.setattr(exact_module, "_product_terms", counted)
    top_weight_projector(ir, gen)
    assert len(calls) <= 1
    calls.clear()
    assert irrep_report(10).ok
    assert len(calls) <= 70
    calls.clear()
    out = find_rotation_with_top_component(ir, [0] * 10 + [1], seed=4)
    assert out.found and out.samples_used >= 2
    assert calls == []
    # nor on large rationals
    out = find_rotation_with_top_component(ir, [0] + normal_vector(np.random.default_rng(4), 10),
                                           seed=4)
    assert out.found and out.samples_used >= 2
    assert calls == []
