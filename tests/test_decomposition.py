import re

import numpy as np
import pytest

from quatspin import cli, decomposition
from quatspin import exact as exact_module
from quatspin.clifford import build_clifford_model, corrupt_gamma
from quatspin.decomposition import (
    build_world,
    decompose,
    decomposition_report,
    lattice_allows,
    omega_eigenvalue,
    weight_eigenvalue,
)
from quatspin.errors import DomainError, SpectrumError
from quatspin.exact import (
    FLOAT_TOL,
    ExactScalar,
    column_space_basis,
    commutator,
    lagrange_eigenprojectors,
)
from quatspin.quaternionic import build_kaehler_operators, build_standard_triple


def _world(m, kind="exact"):
    return build_world(build_clifford_model(m, kind=kind))


@pytest.fixture(scope="module")
def world1():
    return _world(1)


@pytest.fixture(scope="module")
def world2():
    return _world(2)


def test_kraines_spectrum_m1(world1):
    model, ops = world1.model, world1.ops
    # spectrum {6, -6}; both projectors rank 2 and complementary
    projs = lagrange_eigenprojectors(ops.kraines, [6, -6])
    p_plus, p_minus = projs[ExactScalar(6)], projs[ExactScalar(-6)]
    assert p_plus.trace() == ExactScalar(2)
    assert p_minus.trace() == ExactScalar(2)
    assert p_plus + p_minus == model.identity()


def test_block_dims_m1(world1):
    dims = {(b.r, b.k): b.dim for b in world1.dec.nonzero_blocks()}
    assert dims == {(0, 1): 2, (1, 0): 1, (1, 2): 1}


def test_block_dims_m2(world2):
    dims = {(b.r, b.k): b.dim for b in world2.dec.nonzero_blocks()}
    assert dims == {(0, 2): 5, (1, 1): 4, (1, 3): 4,
                    (2, 0): 1, (2, 2): 1, (2, 4): 1}
    assert sum(dims.values()) == 16


def test_absent_blocks_stored(world2):
    dec = world2.dec
    assert dec.block(0, 0).dim == 0
    assert dec.block(1, 2).dim == 0  # odd k+r-m is off the lattice
    assert not lattice_allows(2, 1, 2)
    assert lattice_allows(2, 1, 1)


def test_block_dimension_domain(world1):
    dec = world1.dec
    assert dec.block(0, 1).dim == 2
    with pytest.raises(DomainError):
        dec.block(2, 0)
    with pytest.raises(DomainError):
        dec.block(0, 3)


def test_marginal_multiplicities_match_lapack(world2):
    # independent oracle: LAPACK eigenvalues of the Hermitian forms
    model, ops, dec = world2.model, world2.ops, world2.dec
    m = model.m
    kr = np.linalg.eigvalsh(ops.kraines.to_float().to_complex_array())
    for r in range(m + 1):
        expect = sum(b.dim for b in dec.nonzero_blocks() if b.r == r)
        got = int(np.sum(np.abs(kr - omega_eigenvalue(m, r)) < 1e-8))
        assert got == expect
    wt = np.linalg.eigvalsh(1j * ops[1].to_float().to_complex_array())
    for k in range(2 * m + 1):
        expect = sum(b.dim for b in dec.nonzero_blocks() if b.k == k)
        # eigenvalue of i*Omega_1 is -(2m-2k)
        got = int(np.sum(np.abs(wt + (2 * m - 2 * k)) < 1e-8))
        assert got == expect


def test_projectors_partition_identity(world2):
    model, dec = world2.model, world2.dec
    total = model.zeros()
    for blk in dec.nonzero_blocks():
        total = total + blk.projector
        assert blk.projector @ blk.projector == blk.projector
    assert total == model.identity()


def test_block_bases_are_reduced_and_spanning(world2):
    for blk in world2.dec.nonzero_blocks():
        basis = column_space_basis(blk.projector)
        assert len(basis) == blk.dim
        for v in basis:
            # basis vectors lie in the block: P v = v
            assert blk.projector @ v == v


@pytest.mark.parametrize("m, kind", [(1, "exact"), (2, "exact"),
                                     (1, "float"), (2, "float"), (3, "float")])
def test_marginal_families_are_complete_and_orthogonal(m, kind):
    # decompose certifies only the eigen-equations; these follow from them
    world = _world(m, kind)
    model, dec = world.model, world.dec
    tol = 1e-12 if kind == "float" else 0
    ident = model.identity()
    for family in (dec.r_projectors, dec.k_projectors):
        total = model.zeros()
        for i, p in family.items():
            total = total + p
            assert (p @ p - p).max_abs() <= tol, i
            for j, q in family.items():
                if j != i:
                    assert (p @ q).max_abs() <= tol, (i, j)
        assert (total - ident).max_abs() <= tol


class _SwappedOps:
    """Kaehler operators with Omega_1 or Kraines replaced by another operator."""

    def __init__(self, real, omega1, kraines=None):
        self.kraines = real.kraines if kraines is None else kraines
        self._omegas = (omega1, real[2], real[3])

    def __getitem__(self, a):
        return self._omegas[a - 1]


def _conjugated_omega1(model, ops):
    gamma = model.gamma[0]
    assert gamma @ gamma == -model.identity()
    return gamma @ ops[1] @ -gamma


def test_decompose_rejects_a_noncommuting_omega1(world1, world2):
    # gamma_0 Omega_1 gamma_0^{-1} has the spectrum of Omega_1, so both
    # projector families certify, but it does not commute with Kraines
    model, ops = world2.model, world2.ops
    conj = _conjugated_omega1(model, ops)
    assert not (ops.kraines @ conj - conj @ ops.kraines).is_zero()
    with pytest.raises(SpectrumError, match="do not commute"):
        decompose(model, _SwappedOps(ops, conj))
    # at m = 1 the same conjugate commutes, so the control needs m = 2
    model, ops = world1.model, world1.ops
    conj = _conjugated_omega1(model, ops)
    assert (ops.kraines @ conj - conj @ ops.kraines).is_zero()


def test_decompose_rejects_a_kraines_coupling_two_weights(world2):
    # the single-level weights S^0 and S^2m would certify on their own, so
    # only the commutator sees a Kraines form that moves weight
    model, ops, dec = world2.model, world2.ops, world2.dec
    coupled = ops.kraines + model.gamma[0].scale(ExactScalar(0, 1))
    assert coupled == coupled.hermitian()
    k_proj = dec.k_projectors
    assert any(not (k_proj[j] @ coupled @ k_proj[k]).is_zero()
               for j in k_proj for k in k_proj if j != k)
    with pytest.raises(SpectrumError, match="do not commute"):
        decompose(model, _SwappedOps(ops, ops[1], kraines=coupled))


def _operators(m, kind="exact"):
    model = build_clifford_model(m, kind=kind)
    return model, build_kaehler_operators(model, build_standard_triple(model))


def _full_space_reference(model, ops):
    """The full-space construction, kept as the reference: Kraines' Lagrange
    family over every level and Omega_1's, and the blocks P_r P_k."""
    m = model.m
    levels = lagrange_eigenprojectors(ops.kraines, [omega_eigenvalue(m, r) for r in range(m + 1)])
    weights = lagrange_eigenprojectors(ops[1], [weight_eigenvalue(m, k)
                                                for k in range(2 * m + 1)])
    r_proj, k_proj = dict(enumerate(levels.values())), dict(enumerate(weights.values()))
    blocks = {(r, k): r_proj[r] @ k_proj[k] for r in r_proj for k in k_proj}
    return blocks, r_proj, k_proj


@pytest.mark.parametrize("m, kind", [*((m, "exact") for m in range(1, 6)),
                                     *((m, "float") for m in range(1, 4))])
def test_weight_space_blocks_equal_the_full_space_products(m, kind, monkeypatch):
    # every block, level and weight projector is the full-space product's:
    # the same canonical matrix exactly, within FLOAT_TOL in float
    monkeypatch.setenv("QUATSPIN_MAX_M", "5")
    model, ops = _operators(m, kind)
    dec = decompose(model, ops)
    blocks, r_proj, k_proj = _full_space_reference(model, ops)
    pairs = [*((dec.blocks[key].projector, p) for key, p in blocks.items()),
             *((dec.r_projectors[r], p) for r, p in r_proj.items()),
             *((dec.k_projectors[k], p) for k, p in k_proj.items())]
    assert len(pairs) == (m + 1) * (2 * m + 1) + 3 * m + 2
    for got, want in pairs:
        if kind == "exact":
            assert got == want
        else:
            assert (got - want).max_abs() <= FLOAT_TOL


def test_a_dropped_lattice_level_fails_its_weight(world2, monkeypatch, capsys):
    # S^2 at m = 2 holds the levels r = 0 and 2 (Kraines 12 and -20).
    # Stated without r = 0, the one projector left on S^2 is P_2 itself,
    # and its eigen-equation for -20 fails on the missing level
    allows = decomposition.lattice_allows
    monkeypatch.setattr(decomposition, "lattice_allows",
                        lambda m, r, k: (r, k) != (0, 2) and allows(m, r, k))
    with pytest.raises(SpectrumError, match=r"^eigen-equation fails for -20 \("):
        decompose(world2.model, world2.ops)
    assert cli.main(["decompose", "--m", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: eigen-equation fails for -20 \(residual [^)]*\)\n", err)


def test_a_weight_space_with_no_allowed_level_is_named(world2, monkeypatch, capsys):
    # S^1 at m = 2 holds the one level r = 1: stated without it, the weight
    # space has no level at all, a failed claim (exit 1), not a usage error
    allows = decomposition.lattice_allows
    monkeypatch.setattr(decomposition, "lattice_allows",
                        lambda m, r, k: (r, k) != (1, 1) and allows(m, r, k))
    message = "no level is allowed on the weight space k=1 of dimension 4"
    with pytest.raises(SpectrumError, match=f"^{message}$"):
        decompose(world2.model, world2.ops)
    assert cli.main(["decompose", "--m", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_decompose_rejects_an_omega1_off_the_diagonal(kind):
    # Omega_1 + Omega_2 commutes with Kraines (the Omega_a close under
    # brackets and Kraines is their Casimir plus 6m), but is not diagonal
    world = _world(1, kind)
    model, ops = world.model, world.ops
    mixed = ops[1] + ops[2]
    assert commutator(ops.kraines, mixed).is_zero()
    with pytest.raises(SpectrumError, match=r"^matrix is not diagonal: entry \(\d+, \d+\) is "):
        decompose(model, _SwappedOps(ops, mixed))


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_decompose_rejects_an_omega1_off_the_stated_weights(kind):
    # 2 Omega_1 is diagonal and commutes with Kraines, but at m = 1 it holds
    # 4i and -4i, neither one of the weights 2i, 0, -2i; the first is named
    world = _world(1, kind)
    model, ops = world.model, world.ops
    doubled = ops[1].scale(2)
    assert commutator(ops.kraines, doubled).is_zero()
    stated = [weight_eigenvalue(1, k) for k in range(3)]
    if kind == "float":
        stated = [w.to_complex() for w in stated]
    i = next(i for i in range(model.spinor_dim) if doubled[i, i] not in stated)
    assert doubled[i, i] in (ExactScalar(0, 4), ExactScalar(0, -4), 4j, -4j)
    value = re.escape(str(doubled[i, i]))
    with pytest.raises(SpectrumError,
                       match=rf"^diagonal entry \({i}, {i}\) is {value}, not a stated value$"):
        decompose(model, _SwappedOps(ops, doubled))


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_omega1_enters_no_lagrange_product(kind, monkeypatch):
    # the weight projectors are read off Omega_1's diagonal: the Lagrange
    # families are the 2m + 1 of Kraines within each P_k, and no other
    model, ops = _operators(3, kind)
    seen = []

    def spy(a, spectrum, within=None):
        seen.append((a, within))
        return lagrange_eigenprojectors(a, spectrum, within=within)

    monkeypatch.setattr(decomposition, "lagrange_eigenprojectors", spy)
    dec = decompose(model, ops)
    assert len(seen) == 2 * model.m + 1
    assert all(a is ops.kraines for a, _ in seen)
    assert all(within is p for (_, within), p in zip(seen, dec.k_projectors.values()))


def test_decompose_work_at_m4(monkeypatch):
    # the term expansions (exact._product_terms) and duplicate sums
    # (exact._sum_duplicates) of one decompose at m = 4, a guard free of
    # timing: the full-space Kraines family and the (m+1)(2m+1) products
    # P_r P_k made 119 and 122, and Omega_1's Lagrange family, before the
    # weight projectors were read off its diagonal, 111 and 70
    calls = {"_product_terms": 0, "_sum_duplicates": 0}
    model, ops = _operators(4)
    for name in calls:
        def counted(*args, name=name, original=getattr(exact_module, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(exact_module, name, counted)
    decompose(model, ops)
    assert calls["_product_terms"] <= 39
    assert calls["_sum_duplicates"] <= 34


def test_eigenvalue_formulas():
    assert omega_eigenvalue(2, 0) == 12
    assert omega_eigenvalue(2, 2) == -20
    assert weight_eigenvalue(2, 0) == ExactScalar(0, 4)
    assert weight_eigenvalue(2, 4) == ExactScalar(0, -4)


def test_weight_on_middle_slice_vanishes(world2):
    # Omega_1 annihilates the k=m slice
    p_mid = world2.dec.k_projectors[world2.model.m]
    assert (world2.ops[1] @ p_mid).is_zero()


def test_report_clean(world2):
    rep = decomposition_report(world2)
    assert rep.ok
    assert rep.counts()["fail"] == 0


def test_report_catches_tampering(world1):
    bad = corrupt_gamma(world1.model, 0)
    rep = decomposition_report(build_world(bad, dec=world1.dec))
    assert not rep.ok
    ids = {e.check_id for e in rep.failures()}
    assert "block_projector_eigen" in ids


def test_wrong_spectrum_rejected(world1):
    model, ops = world1.model, world1.ops

    class FakeOps:
        def __init__(self, real):
            self.kraines = real.kraines.scale(2)  # spectrum now {12, -12}
            self._real = real

        def __getitem__(self, a):
            return self._real[a]

    with pytest.raises(SpectrumError):
        decompose(model, FakeOps(ops))


def test_float_backend_decomposition():
    dims = {(b.r, b.k): b.dim for b in _world(1, "float").dec.nonzero_blocks()}
    assert dims == {(0, 1): 2, (1, 0): 1, (1, 2): 1}


def _neighbor_rows(world):
    """The neighbour rows of the report on a world."""
    report = decomposition_report(world)
    return [e for e in report.entries if e.check_id == "clifford_neighbor_blocks"]


def _even_gamma0(model):
    # gamma_0 gamma_1 is even: it keeps part of each block in place
    return model._replace(gamma=(model.gamma[0] @ model.gamma[1],) + model.gamma[1:])


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_neighbor_check_names_a_far_block(kind):
    world = _world(2, kind)
    model, dec = world.model, world.dec
    families = {"r": dec.r_projectors, "k": dec.k_projectors}
    clean = _neighbor_rows(world)
    assert len(clean) == 4 * model.m * (3 * model.m + 2)
    assert {e.subject for e in clean} == {
        f"m=2 i={i} {label}={idx}" for i in range(model.n)
        for label, family in families.items() for idx in family}
    assert all(e.status == "pass" and e.note == "" for e in clean)
    bad = _even_gamma0(model)
    failed = [e for e in _neighbor_rows(build_world(bad, dec=dec))
              if e.status == "fail"]
    assert failed
    for e in failed:
        i, label, idx = re.fullmatch(r"m=2 i=(\d+) ([rk])=(\d+)", e.subject).groups()
        assert i == "0"
        far = int(re.fullmatch(rf"reaches {label}=(\d+)", e.note).group(1))
        family = families[label]
        assert far in family and abs(far - int(idx)) != 1
        # the named level (weight) is reached: P_far gamma P_idx != 0
        assert not (family[far] @ bad.gamma[0] @ family[int(idx)]).is_zero()


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_marginal_neighbor_rows_equal_the_joint_claim(kind):
    # the report checks one row per (generator, level) and (generator,
    # weight); a generator must fail one exactly when the joint residual
    # g P_src - sum_{diagonal neighbours d} P_d g P_src of some block does
    world = _world(2, kind)
    model, dec = world.model, world.dec
    nonzero = dec.nonzero_blocks()
    for mdl, expect in ((model, set()), (_even_gamma0(model), {0})):
        marginal = {int(re.match(r"m=2 i=(\d+) ", e.subject).group(1))
                    for e in _neighbor_rows(build_world(mdl, dec=dec))
                    if e.status == "fail"}
        joint = set()
        for i, g in enumerate(mdl.gamma):
            for src in nonzero:
                img = g @ src.projector
                res = img
                for dst in nonzero:
                    if abs(dst.r - src.r) == 1 and abs(dst.k - src.k) == 1:
                        res = res - dst.projector @ img
                if not res.is_zero():
                    joint.add(i)
        assert marginal == joint == expect
