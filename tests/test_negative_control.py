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

Three more controls reach the lemma families that none of the above fails,
at m = 1 and 2 in both backends: J(x) formed without its 3 a(x) term must
fail the expansion of J on the adapted basis and the sums of J(u_j) a(v_j);
J_1 -> 2 J_1, with its operators rebuilt, must fail that expansion, whose
a(J_1 u_j) comes from the triple while J(u_j) reads it as a phase multiple
of a(u_j); and J_2 = I, with its operators rebuilt, must fail the rotated
product sums.
"""

import json
import re
from collections import Counter
from dataclasses import replace

import pytest

from quatspin import cli, projectors
from quatspin.clifford import build_clifford_model
from quatspin.decomposition import World, build_world
from quatspin.exact import fused_sum
from quatspin.quaternionic import HyperkahlerTriple, build_kaehler_operators
from quatspin.sparse import SparseMatrix

WITNESS_FAMILIES = {"clifford_four_fold_split", "block_projector_eigen",
                    "k_shift_projection", "block_constant_match",
                    "block_adjoint_pairing", "block_scalar_weight",
                    "block_scalar_kraines", "line_symmetry"}
SUBSTITUTION_FAMILIES = {"kraines_commutator_jop", "kaehler_vector_commutator",
                         "clifford_neighbor_blocks", "clifford_anticommutation",
                         "rotated_vector_anticommute"}

CASES = [(1, i, backend) for i in range(4) for backend in ("exact", "float")] \
    + [(2, i, "exact") for i in range(8)]


def run(argv, capsys):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


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


def _substituted(model, index):
    """model with gamma_index replaced by gamma_index gamma_{index+1 mod 4m}."""
    gamma = list(model.gamma)
    gamma[index] = gamma[index] @ gamma[(index + 1) % model.n]
    return replace(model, gamma=tuple(gamma))


@pytest.mark.parametrize("m,index,backend", CASES)
def test_product_substitution_fails_with_witnesses(m, index, backend):
    standard = build_world(build_clifford_model(m, kind=backend))
    world = build_world(_substituted(standard.model, index), dec=standard.dec)
    failures = cli.world_report(world).failures()
    for e in failures:
        assert float(e.residual) > 0, e
    assert SUBSTITUTION_FAMILIES <= {e.check_id for e in failures}


TRIPLE_FAMILIES = {"quaternion_relations", "kaehler_commutators", "sl2_relations",
                   "mixed_product_kaehler_form"}


def _corrupted_triple_report(m, backend, corrupt):
    """The world report with the triple (J_1, J_2, J_3) replaced by
    corrupt(J_1, J_2, J_3) and its operators rebuilt, over the standard model
    and decomposition."""
    standard = build_world(build_clifford_model(m, kind=backend))
    triple = HyperkahlerTriple(j=corrupt(*standard.triple.j))
    world = World(standard.model, triple,
                  build_kaehler_operators(standard.model, triple), standard.dec)
    return cli.world_report(world)


@pytest.mark.parametrize("m", [1, 2])
def test_flipped_j2_fails_in_both_backends_alike(m):
    reports = {backend: _corrupted_triple_report(m, backend, lambda j1, j2, j3: (j1, -j2, j3))
               for backend in ("exact", "float")}
    for report in reports.values():
        failures = report.failures()
        for e in failures:
            assert float(e.residual) > 0, e
        assert TRIPLE_FAMILIES <= {e.check_id for e in failures}
    verdicts = [[(e.check_id, e.subject, e.status) for e in report.sorted_entries()]
                for report in reports.values()]
    assert verdicts[0] == verdicts[1]


def _failing_families(report):
    """The check_ids of the failed rows, each failure with a positive residual."""
    failures = report.failures()
    for e in failures:
        assert float(e.residual) > 0, e
    return {e.check_id for e in failures}


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_j_without_its_action_term_fails_the_expansion(m, backend, monkeypatch):
    # J(x) formed without its 3 a(x) term, on the standard world: the
    # expansion of J on the adapted basis and the products J(u_j) a(v_j)
    # must fail
    def without_action(ops, act, rotated):
        return fused_sum([(1, ops[a], rotated[a]) for a in (1, 2, 3)])

    monkeypatch.setattr(projectors, "_j_combination", without_action)
    report = cli.world_report(build_world(build_clifford_model(m, kind=backend)))
    assert {"jop_adapted_expansion", "jop_product_jf_fbar",
            "jop_product_jfbar_f"} <= _failing_families(report)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_doubled_j1_fails_the_expansion(m, backend):
    # the adapted basis of 2 J_1 is no longer i and -i eigenvectors of J_1,
    # so a(J_1 u_j) formed from the triple differs from -t i a(u_j)
    report = _corrupted_triple_report(m, backend, lambda j1, j2, j3: (j1.scale(2), j2, j3))
    assert "jop_adapted_expansion" in _failing_families(report)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_identity_j2_fails_the_rotated_product_sums(m, backend):
    # a(J_2 f_j) a(J_2 fbar_j) then sums to sum_j a(f_j) a(fbar_j), not to
    # sum_j a(fbar_j) a(f_j)
    report = _corrupted_triple_report(
        m, backend, lambda j1, j2, j3: (j1, SparseMatrix.identity(j1.rows), j3))
    assert "rotated_basis_product_sum" in _failing_families(report)


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
