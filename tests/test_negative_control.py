"""Negative-control matrix: every corrupted generator list breaks the suite.

A negative control keeps the decomposition of the standard world as the
stated object and corrupts only the generator list: the world of the
corrupted model (its triple, and Kaehler operators rebuilt from its own
generators) over the standard decomposition, `build_world(bad, dec=...)`.
A corrupted model that rebuilt its decomposition too would be checked
against its own blocks, and a sign-flipped one is an equivalent model that
passes every row.

Two corruptions, each for every generator index at m = 1 (both backends)
and m = 2 (exact); each run must fail through report rows with positive
residuals, never through an error:

- `verify --flip-gamma i` replaces gamma_i by -gamma_i.  The failures must
  reach the decomposition, lemma and constant layers, including the
  four-fold split and the adjoint pairing of neighbouring block maps, and
  the line-symmetry certificate, whose lifts do not commute with the
  Kraines form and Omega_1 of the stated decomposition.  The Omega_1 and
  Kraines restriction scalars fail on every block, with the residual of
  their block_projector_eigen twin.  A sign flip is consistent with the
  operators rebuilt from it, so the per-vector commutators with the
  Kaehler and Kraines operators, and the neighbour rows (-gamma_i moves
  the blocks exactly as gamma_i does), cannot fail under it.
- the product substitution gamma_i -> gamma_i gamma_{i+1 mod 4m} puts an
  even element in an odd slot: it must fail those commutators, the
  neighbour rows, Clifford anticommutation and the rotated anticommutation
  of the adapted basis.

A third control corrupts the triple instead: J_2 -> -J_2, with the Kaehler
operators rebuilt from the corrupted triple, over the standard model and
decomposition, at m = 1 and 2 in both backends.  J_1 J_2 = J_3 no longer
holds, so the quaternion relations, the commutator table of the Omega_a,
the sl2 relations and the mixed product sums, which reproduce Omega_2 and
Omega_3 from the adapted basis, must fail, with the same verdict on every
row in both backends.

Five more controls reach the families that none of the above fails, at
m = 1 and 2 in both backends: J(x) formed without its 3 a(x) term must
fail the expansion of J on the adapted basis and the sums of J(u_j) a(v_j);
J_1 -> 2 J_1, with its operators rebuilt, must fail that expansion, which
states a(J_1 u_j) as the phase multiple -t i a(u_j) while J(u_j) reads it
off the triple, and the two sums of J(u_j) a(v_j) that carry it; J_2 = I,
with its operators rebuilt, must fail the rotated product sums; operators
that carry Kraines + I must fail the Kraines rebuild and the Casimir
identity; and operators that carry -Omega_2, with their Kraines form
rebuilt, must fail the Kaehler rebuild.  Operators that carry -Omega_1,
with their Kraines form rebuilt, keep Omega_1 diagonal: they must fail the
Kaehler rebuild of a = 1, the commutator table, the sl2 relations and the
weight rows of every block of nonzero weight, with their
block_scalar_weight twins, while the line symmetry, the Kraines rebuild,
the Casimir identity and Clifford anticommutation pass, with the same
verdict on every row in both backends.

The other controls corrupt the stated side instead of the computed one:

- a lattice rule that admits one more (r, k) must fail that block_lattice
  row alone;
- a closed form A_{r,k} moved by 1/2 must fail that block_constant_match
  row alone, in `constants` and in `verify`;
- a block that states Omega_1's weight off by 2 must fail that
  weight_consistency row alone;
- a block stated as zero must fail its block_lattice row and
  block_dimension_sum in `decomposition_report`, each with a positive
  witness, and the four-fold split of the world report;
- a line lift whose stated signed permutation has one sign flipped must
  fail that lift's `generators` row alone.

Two controls corrupt the so(3) layer: every irrep's H_1 + E_00 must fail
all six so(3) families of `irrep_report`, and every rotated generator +
E_00 exactly its spectrum and trace rows, each with residual 1.  Through
`verify --m 1` both fail the so3 segment alone.

`CONTROLS` holds every control above as one function, and the coverage
guard runs them all at m <= 2: the check_ids they fail must be exactly the
check_ids that `verify --m 2` judges (every row that is not info), so a new
check family without a control fails the guard.
"""

import json
import re
from collections import Counter

import pytest

from fractions import Fraction

from quatspin import cli, decomposition, projectors, so3, symmetry
from quatspin.clifford import build_clifford_model, corrupt_gamma
from quatspin.decomposition import World, build_world, decomposition_report
from quatspin.exact import fused_sum
from quatspin.quaternionic import (HyperkahlerTriple, KaehlerOperators, build_kaehler_operators,
                                   kraines_form)
from quatspin.sparse import SparseMatrix

WITNESS_FAMILIES = {"clifford_four_fold_split", "block_projector_eigen",
                    "k_shift_projection", "block_constant_match",
                    "block_adjoint_pairing", "block_scalar_weight",
                    "block_scalar_kraines", "line_symmetry"}
SUBSTITUTION_FAMILIES = {"kraines_commutator_jop", "kaehler_vector_commutator",
                         "clifford_neighbor_blocks", "clifford_anticommutation",
                         "rotated_vector_anticommute"}
SO3_FAMILIES = {"ladder_relations", "generator_commutators", "casimir_scalar",
                "weight_spectrum", "rotated_generator_spectrum", "rotated_generator_trace"}

CASES = [(1, i, backend) for i in range(4) for backend in ("exact", "float")] \
    + [(2, i, "exact") for i in range(8)]


def run(argv, capsys):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def _failing_families(report):
    """The check_ids of the failed rows, each failure with a positive residual."""
    failures = report.failures()
    for e in failures:
        assert float(e.residual) > 0, e
    return {e.check_id for e in failures}


# ------------------------------------------------------------- the controls


def _standard(m, backend):
    return build_world(build_clifford_model(m, kind=backend))


def _flipped(m, backend, index):
    """gamma_index -> -gamma_index over the standard decomposition, the
    world of `verify --flip-gamma index`."""
    standard = _standard(m, backend)
    return build_world(corrupt_gamma(standard.model, index), dec=standard.dec)


def _substituted(m, backend, index):
    """gamma_index -> gamma_index gamma_{index+1 mod 4m} over the standard
    decomposition."""
    standard = _standard(m, backend)
    gamma = list(standard.model.gamma)
    gamma[index] = gamma[index] @ gamma[(index + 1) % standard.model.n]
    return build_world(standard.model._replace(gamma=tuple(gamma)), dec=standard.dec)


def _with_triple(m, backend, corrupt):
    """The triple (J_1, J_2, J_3) replaced by corrupt(J_1, J_2, J_3) and its
    operators rebuilt, over the standard model and decomposition."""
    standard = _standard(m, backend)
    triple = HyperkahlerTriple(j=corrupt(*standard.triple.j))
    return World(standard.model, triple,
                 build_kaehler_operators(standard.model, triple), standard.dec)


def _flipped_j2(j1, j2, j3):
    return j1, -j2, j3


def _doubled_j1(j1, j2, j3):
    return j1.scale(2), j2, j3


def _identity_j2(j1, j2, j3):
    return j1, SparseMatrix.identity(j1.rows), j3


def _with_operators(m, backend, corrupt):
    """The operators corrupt(model, ops) over the standard model, triple and
    decomposition."""
    standard = _standard(m, backend)
    return World(standard.model, standard.triple, corrupt(standard.model, standard.ops),
                 standard.dec)


def _kraines_plus_identity(model, ops):
    return KaehlerOperators(omega=ops.omega, kraines=ops.kraines + model.identity())


def _omega2_flipped(model, ops):
    omega = (ops[1], -ops[2], ops[3])
    return KaehlerOperators(omega=omega, kraines=kraines_form(model, omega))


def _omega1_flipped(model, ops):
    omega = (-ops[1], ops[2], ops[3])
    return KaehlerOperators(omega=omega, kraines=kraines_form(model, omega))


def _with_blocks(world, change):
    """world over its decomposition with the blocks change(blocks) instead."""
    dec = world.dec._replace(blocks=change(dict(world.dec.blocks)))
    return World(world.model, world.triple, world.ops, dec)


def _shifted_weight(m, backend):
    """Block (m, 0) states Omega_1's weight 2m + 2 instead of 2m."""
    def shifted(blocks):
        blk = blocks[m, 0]
        return {**blocks, (m, 0): blk._replace(weight_im=blk.weight_im + 2)}

    return _with_blocks(_standard(m, backend), shifted)


def _zeroed_block():
    """Block (1, 1) of m = 2 (dimension 4) stated as zero."""
    def zeroed(blocks):
        return {**blocks, (1, 1): blocks[1, 1]._replace(
            dim=0, projector=blocks[1, 1].projector.scale(0))}

    return _with_blocks(_standard(2, "exact"), zeroed)


def _drop_action_term(patch):
    """J(x) formed without its 3 a(x) term."""
    def without_action(ops, act, rotated):
        return fused_sum([(1, ops[a], rotated[a]) for a in (1, 2, 3)])

    patch.setattr(projectors, "_j_combination", without_action)


def _wrong_sigma(patch):
    """right-j states S gamma_0 = +gamma_2 S instead of -gamma_2 S."""
    real = symmetry.line_symmetries

    def wrong_sign(model):
        right_j, *swaps = real(model)
        (target, sign), *rest = right_j.signed_permutation
        return (right_j._replace(signed_permutation=((target, -sign), *rest)), *swaps)

    patch.setattr(symmetry, "line_symmetries", wrong_sign)


def _admit_missing_block(patch):
    """The lattice rule admits (m, r, k) = (2, 1, 2), a block no world has."""
    real = decomposition.lattice_allows
    patch.setattr(decomposition, "lattice_allows",
                  lambda m, r, k: (m, r, k) == (2, 1, 2) or real(m, r, k))


def _perturb_closed_form(patch):
    """The closed form A_{1,1}^{+-} moved by 1/2."""
    real = projectors.closed_form_A

    def off_by_half(m, r, k, variant):
        return real(m, r, k, variant) + Fraction(int((r, k, variant) == (1, 1, "+-")), 2)

    patch.setattr(projectors, "closed_form_A", off_by_half)


def _unit_at_origin(n):
    """The n x n matrix with a single 1 at entry (0, 0)."""
    return SparseMatrix.from_rows([[int(s == t == 0) for t in range(n)] for s in range(n)])


def _bump_h1(patch):
    """Every irrep's H_1 gains +1 at entry (0, 0)."""
    real = so3.build_irrep

    def bumped(r, kind="exact"):
        irrep = real(r, kind)
        h1, h2, h3 = irrep.h
        return irrep._replace(h=(h1 + _unit_at_origin(irrep.dim), h2, h3))

    patch.setattr(so3, "build_irrep", bumped)


def _bump_rotated_generator(patch):
    """Every rotated generator gains +1 at entry (0, 0)."""
    real = so3.rotated_generator
    patch.setattr(so3, "rotated_generator",
                  lambda irrep, g: real(irrep, g) + _unit_at_origin(irrep.dim))


def _reports(build, *args):
    """The world reports of build(m, "exact", *args) at m = 1 and 2."""
    return [cli.world_report(build(m, "exact", *args)) for m in (1, 2)]


def _patched(patcher, reports):
    """A control that applies patcher to its monkeypatch context, then
    makes the reports()."""
    def control(patch):
        patcher(patch)
        return reports()
    return control


# Every control, as a function of a monkeypatch context that returns the
# exact reports it corrupts at m <= 2.  The tests below read single reports
# of the same corruptions; the coverage guard runs them all.
CONTROLS = {
    "flip-gamma": lambda patch: [cli.world_report(_flipped(m, "exact", i))
                                 for m in (1, 2) for i in range(4 * m)],
    "product substitution": lambda patch: [cli.world_report(_substituted(m, "exact", i))
                                           for m in (1, 2) for i in range(4 * m)],
    "J_2 -> -J_2": lambda patch: _reports(_with_triple, _flipped_j2),
    "J_1 -> 2 J_1": lambda patch: _reports(_with_triple, _doubled_j1),
    "J_2 = I": lambda patch: _reports(_with_triple, _identity_j2),
    "Kraines + I": lambda patch: _reports(_with_operators, _kraines_plus_identity),
    "-Omega_2": lambda patch: _reports(_with_operators, _omega2_flipped),
    "-Omega_1": lambda patch: _reports(_with_operators, _omega1_flipped),
    "shifted stated weight": lambda patch: _reports(_shifted_weight),
    "zeroed block": lambda patch: [cli.world_report(_zeroed_block())],
    "J without 3 a(x)": _patched(_drop_action_term, lambda: _reports(_standard)),
    "wrong stated sigma": _patched(_wrong_sigma, lambda: _reports(_standard)),
    "missing lattice block": _patched(
        _admit_missing_block, lambda: [cli.world_report(_standard(2, "exact"))]),
    "perturbed closed form": _patched(
        _perturb_closed_form, lambda: [cli.world_report(_standard(2, "exact"))]),
    "H_1 + E_00": _patched(_bump_h1, lambda: [so3.irrep_report(3)]),
    "rotated generator + E_00": _patched(_bump_rotated_generator,
                                         lambda: [so3.irrep_report(10)]),
}


# ---------------------------------------------------------------- the tests


@pytest.mark.parametrize("m,index,backend", CASES)
def test_flipped_generator_fails_with_witnesses(m, index, backend, capsys):
    rc, out, err = run(["verify", "--m", str(m), "--flip-gamma", str(index),
                        "--backend", backend], capsys)
    assert rc == 1
    assert err == ""
    report = json.loads(out)
    failures = report["failures"]
    for f in failures:
        assert float(f["residual"]) > 0, f
    assert WITNESS_FAMILIES <= {f["check_id"] for f in failures}
    # each block scalar row fails on every block with its eigen twin's residual
    rows = {(e["check_id"], e["subject"]): e for e in report["entries"]}
    for family, claim in (("block_scalar_kraines", "kraines"),
                          ("block_scalar_weight", "weight")):
        for (check_id, subject), e in rows.items():
            if check_id == family:
                twin = rows["block_projector_eigen", f"{subject} {claim}"]
                assert e["status"] == "fail", e
                assert e["residual"] == twin["residual"], (e, twin)


@pytest.mark.parametrize("m,index,backend", CASES)
def test_product_substitution_fails_with_witnesses(m, index, backend):
    failures = cli.world_report(_substituted(m, backend, index)).failures()
    for e in failures:
        assert float(e.residual) > 0, e
    assert SUBSTITUTION_FAMILIES <= {e.check_id for e in failures}


TRIPLE_FAMILIES = {"quaternion_relations", "kaehler_commutators", "sl2_relations",
                   "mixed_product_kaehler_form"}


@pytest.mark.parametrize("m", [1, 2])
def test_flipped_j2_fails_in_both_backends_alike(m):
    reports = {backend: cli.world_report(_with_triple(m, backend, _flipped_j2))
               for backend in ("exact", "float")}
    for report in reports.values():
        failures = report.failures()
        for e in failures:
            assert float(e.residual) > 0, e
        assert TRIPLE_FAMILIES <= {e.check_id for e in failures}
    verdicts = [[(e.check_id, e.subject, e.status) for e in report.sorted_entries()]
                for report in reports.values()]
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_j_without_its_action_term_fails_the_expansion(m, backend, monkeypatch):
    # J(x) formed without its 3 a(x) term, on the standard world: the
    # expansion of J on the adapted basis and the products J(u_j) a(v_j)
    # must fail
    _drop_action_term(monkeypatch)
    report = cli.world_report(_standard(m, backend))
    assert {"jop_adapted_expansion", "jop_product_jf_fbar",
            "jop_product_jfbar_f"} <= _failing_families(report)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_doubled_j1_fails_the_expansion(m, backend):
    # the adapted basis of 2 J_1 is no longer i and -i eigenvectors of J_1,
    # so a(J_1 u_j), read off the triple, differs from the phase -t i a(u_j)
    # that the expansion states, and J(u_j) in the sums of J(u_j) a(v_j)
    # carries it
    report = cli.world_report(_with_triple(m, backend, _doubled_j1))
    assert {"jop_adapted_expansion", "jop_product_jf_fbar",
            "jop_product_jfbar_f"} <= _failing_families(report)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_identity_j2_fails_the_rotated_product_sums(m, backend):
    # a(J_2 f_j) a(J_2 fbar_j) then sums to sum_j a(f_j) a(fbar_j), not to
    # sum_j a(fbar_j) a(f_j)
    report = cli.world_report(_with_triple(m, backend, _identity_j2))
    assert "rotated_basis_product_sum" in _failing_families(report)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("corrupt,families", [
    (_kraines_plus_identity, {"kraines_rebuild", "casimir_identity"}),
    (_omega2_flipped, {"kaehler_rebuild"}),
], ids=["kraines+I", "-Omega_2"])
def test_operators_not_of_the_model_fail_their_rebuild(m, backend, corrupt, families):
    # operators over the standard model, triple and decomposition that are
    # not the ones built from them: Kraines + I is not the Kraines form of
    # its Omega_a, and -Omega_2 (its Kraines form rebuilt) not the Kaehler
    # form of J_2
    report = cli.world_report(_with_operators(m, backend, corrupt))
    assert families <= _failing_families(report)


@pytest.mark.parametrize("m", [1, 2])
def test_flipped_omega_1_fails_alike_in_both_backends(m):
    # -Omega_1 (its Kraines form rebuilt) stays diagonal, so decompose's
    # weight projectors are still certified, but every stated weight w of a
    # block now reads -w: the weight rows fail on each block of weight
    # k != m, with their block_scalar_weight twins; the Kraines form, the
    # line lifts and the Clifford relations do not see the sign
    reports = {backend: cli.world_report(_with_operators(m, backend, _omega1_flipped))
               for backend in ("exact", "float")}
    for report in reports.values():
        failed = _failing_families(report)
        assert {"kaehler_rebuild", "kaehler_commutators", "sl2_relations",
                "block_projector_eigen", "block_scalar_weight"} <= failed
        assert not failed & {"line_symmetry", "kraines_rebuild", "casimir_identity",
                             "clifford_anticommutation"}
        assert [e.subject for e in report.failures() if e.check_id == "kaehler_rebuild"] \
            == [f"m={m} a=1"]
        rows = {(e.check_id, e.subject): e for e in report.entries}
        weight_rows = [(subject, e) for (check_id, subject), e in rows.items()
                       if check_id == "block_scalar_weight"]
        assert [subject for subject, e in weight_rows if e.status == "fail"] == \
            [subject for subject, _ in weight_rows if not subject.endswith(f"k={m}")]
        assert [e.subject for e in report.failures()
                if e.check_id == "block_projector_eigen"] == \
            [f"{subject} weight" for subject, e in weight_rows if e.status == "fail"]
        for subject, e in weight_rows:
            assert e.residual == rows["block_projector_eigen", f"{subject} weight"].residual
    verdicts = [[(e.check_id, e.subject, e.status) for e in report.sorted_entries()]
                for report in reports.values()]
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_a_shifted_stated_weight_fails_weight_consistency_alone(m, backend):
    # block (m, 0) states Omega_1's weight 2m + 2 instead of 2m
    world = _shifted_weight(m, backend)
    assert [(e.check_id, e.subject, e.residual) for e in cli.world_report(world).failures()] \
        == [("weight_consistency", f"m={m} r={m} k=0", "1")]


def test_a_zeroed_block_fails_the_dimension_sum_with_a_positive_witness():
    # the blocks sum to 12 of 16, and the four-fold split sees pieces land
    # outside every stated block
    world = _zeroed_block()
    assert [(e.check_id, e.subject, e.residual)
            for e in decomposition_report(world).failures()] == \
        [("block_lattice", "m=2 r=1 k=1", "1"), ("block_dimension_sum", "m=2", "4")]
    assert _failing_families(cli.world_report(world)) == \
        {"block_lattice", "block_dimension_sum", "clifford_four_fold_split"}


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_a_wrong_stated_sigma_fails_its_generators_row_alone(backend, monkeypatch):
    # the failed certificate derives no row, so every other row is computed
    world = _standard(2, backend)
    clean = cli.world_report(world)
    _wrong_sigma(monkeypatch)
    report = cli.world_report(world)
    assert [(e.check_id, e.subject, e.residual, e.note) for e in report.failures()] == \
        [("line_symmetry", "m=2 right-j line=0 generators", "2.000000e+00",
          "fails at gamma_0")]
    assert [(e.check_id, e.subject) for e in report.sorted_entries()] == \
        [(e.check_id, e.subject) for e in clean.sorted_entries()]


def test_a_missing_lattice_block_fails_with_a_witness(monkeypatch):
    _admit_missing_block(monkeypatch)
    failures = cli.world_report(_standard(2, "exact")).failures()
    assert [(e.check_id, e.subject, e.note) for e in failures] == \
        [("block_lattice", "m=2 r=1 k=2", "lattice-allowed block is missing")]
    assert float(failures[0].residual) > 0


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_a_perturbed_closed_form_fails_its_row_alone(backend, monkeypatch, capsys):
    _perturb_closed_form(monkeypatch)
    rc, out, err = run(["constants", "--m", "2", "--backend", backend], capsys)
    assert (rc, err) == (1, "")
    assert [(row["r"], row["k"], row["variant"], row["closed"])
            for row in json.loads(out)["rows"] if not row["match"]] == [(1, 1, "+-", "-2")]
    rc, out, err = run(["verify", "--m", "2", "--backend", backend], capsys)
    assert (rc, err) == (1, "")
    assert [(f["check_id"], f["subject"], f["residual"])
            for f in json.loads(out)["failures"]] == \
        [("block_constant_match", "m=2 r=1 k=1 variant=+-", "5.000e-01")]


def test_a_bumped_h1_fails_every_so3_family(monkeypatch):
    # H_1 + E_00 is no longer the weight diagonal, breaks the commutators
    # and the Casimir scalar, and moves every rotated generator of r >= 1
    _bump_h1(monkeypatch)
    assert _failing_families(so3.irrep_report(3)) == SO3_FAMILIES


def test_a_bumped_rotated_generator_fails_its_spectrum_and_trace(monkeypatch):
    # a rotated generator + E_00 has trace 1, so its spectrum is not
    # {r, r-2, ..., -r}: both rows fail for every r and rotation, each
    # with residual 1, and every other row passes
    _bump_rotated_generator(monkeypatch)
    failures = so3.irrep_report(10).failures()
    assert Counter(e.check_id for e in failures) == \
        {"rotated_generator_spectrum": 33, "rotated_generator_trace": 33}
    assert {e.residual for e in failures} == {"1.000000e+00"}
    assert (failures[0].subject, failures[0].note) == \
        ("r=0 q=(1, 2, 2, 0)", "eigen-equation fails for 0 (|det(0 - H)| = 1.000e+00)")


@pytest.mark.parametrize("patcher", [_bump_h1, _bump_rotated_generator],
                         ids=["H_1", "rotated"])
def test_so3_corruptions_fail_only_the_so3_segment(patcher, monkeypatch, capsys):
    patcher(monkeypatch)
    rc, out, err = run(["verify", "--m", "1"], capsys)
    assert (rc, err) == (1, "")
    failures = json.loads(out)["failures"]
    assert failures and {f["segment"] for f in failures} == {"so3"}


def test_every_check_family_fails_under_some_control(monkeypatch, capsys):
    # the guard of the claim that every check family can fail: a new
    # family that no control above fails, fails here
    failed = set()
    for control in CONTROLS.values():
        with monkeypatch.context() as patch:
            for report in control(patch):
                failed |= _failing_families(report)
    rc, out, err = run(["verify", "--m", "2"], capsys)
    assert rc == 0
    judged = {e["check_id"] for e in json.loads(out)["entries"] if e["status"] != "info"}
    assert failed == judged


@pytest.mark.parametrize("m", [1, 2, 3])
def test_per_vector_row_counts(m, capsys):
    # every adapted index j (generator i) carries its own rows, once each,
    # whether they were computed or derived by a line symmetry
    rc, out, err = run(["verify", "--m", str(m)], capsys)
    assert rc == 0
    entries = json.loads(out)["entries"]
    blocks = {tuple(map(int, re.search(r"r=(\d+) k=(\d+)", e["subject"]).groups()))
              for e in entries if e["check_id"] == "block_scalar_weight"}
    rows_per_j = {
        "clifford_four_fold_split": 4 * len(blocks),
        "kraines_commutator_jop": 2,
        "kraines_commutator_jop_second": 2,
        "kaehler_vector_commutator": 6,
        "rotated_vector_anticommute": 2,
        "jop_adapted_expansion": 2,
        "r_shift_projection": 4 * (m + 1),
        "k_shift_projection": 2 * (2 * m + 1),
        "block_adjoint_pairing": sum((r + 1, k + 1) in blocks for r, k in blocks),
    }

    def index_counts(check_id, index):
        subjects = [e["subject"] for e in entries if e["check_id"] == check_id]
        assert len(set(subjects)) == len(subjects), check_id
        return Counter(int(re.search(rf"\b{index}=(\d+)", s).group(1)) for s in subjects)

    for check_id, per_j in rows_per_j.items():
        assert index_counts(check_id, "j") == {j: per_j for j in range(2 * m)}, check_id
    assert index_counts("clifford_neighbor_blocks", "i") == \
        {i: 3 * m + 2 for i in range(4 * m)}
    assert sum(e["check_id"] == "line_symmetry" for e in entries) == 4 * m
