"""End-to-end acceptance suite.

Seven criteria, one test (and one printed [PASS]/[FAIL] line) each:

1. structure invariants exact-zero for m in {1, 2, 3}
2. joint spectra, block dimensions, the lattice rule, and the Omega_1 and
   Kraines restriction scalars on every block
3. the full operator-identity suite, including restriction scalars
4. computed block constants equal their closed forms everywhere, m <= 4
5. bound coefficients: universal value, extremal identification, and the
   enumerated monotonicity/dominance properties through m = 50
6. behavioral top-weight search: zero exhaustions over 2100 seeded runs,
   1000 of them on vectors with no top component at the identity
7. negative control: a flipped generator sign must break criteria 2-4
   through the CLI with a nonzero exit and concrete witnesses

Run with -s to see the verdict lines on success; pytest shows them
automatically on failure.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from quatspin import cli
from quatspin.bounds import (
    bound_case_A,
    bound_property_report,
    universal_coefficient,
)
from quatspin.clifford import build_clifford_model
from quatspin.decomposition import build_world, decomposition_report, lattice_allows
from quatspin.projectors import (
    ProjectorCalculus,
    constants_report,
    verify_lemma_identities,
)
from quatspin.quaternionic import structure_report
from quatspin.so3 import build_irrep, find_rotation_with_top_component, random_vector

M_VALUES = (1, 2, 3)


def _calculus(m):
    """The projector calculus of the standard world of m; calc.world is it."""
    return ProjectorCalculus(build_world(build_clifford_model(m)))


@pytest.fixture(scope="module")
def calculi():
    return {m: _calculus(m) for m in M_VALUES}


def _verdict(criterion, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {label} — {detail}"
    print(line)
    assert ok, line


def _exact_clean(report):
    """True iff no failures and every passing residual is exactly zero."""
    return report.counts()["fail"] == 0 and all(
        e.residual == "0" for e in report.entries if e.status == "pass")


def test_criterion_1_structure_invariants(calculi):
    required = {"quaternion_relations", "hk_orthogonality", "hk_adaptedness",
                "clifford_anticommutation", "kaehler_commutators",
                "sl2_relations", "casimir_identity"}
    ok = True
    total = 0
    for m in M_VALUES:
        rep = structure_report(calculi[m].world)
        ok = ok and _exact_clean(rep)
        ok = ok and required <= {e.check_id for e in rep.entries}
        total += rep.counts()["pass"]
    _verdict(1, "structure invariants exact-zero for m in {1,2,3}", ok,
             f"{total} checks, residuals all 0")


def test_criterion_2_spectra_and_lattice(calculi):
    ok = True
    blocks_seen = 0
    for m in M_VALUES:
        w = calculi[m].world
        rep = decomposition_report(w)
        ok = ok and _exact_clean(rep)
        nonzero = w.dec.nonzero_blocks()
        blocks_seen += len(nonzero)
        ok = ok and {b.omega_eig for b in nonzero} == \
            {6 * m - 4 * r * (r + 2) for r in range(m + 1)}
        ok = ok and {b.weight_im for b in nonzero} == \
            {2 * m - 2 * k for k in range(2 * m + 1)}
        ok = ok and sum(b.dim for b in nonzero) == 2 ** (2 * m)
        ok = ok and {"clifford_neighbor_blocks", "block_scalar_weight",
                     "block_scalar_kraines"} <= {e.check_id for e in rep.entries}
        for (r, k), blk in w.dec.blocks.items():
            ok = ok and (blk.dim > 0) == lattice_allows(m, r, k)
    _verdict(2, "certified spectra, dimension sum 2^{2m}, exact lattice rule",
             ok, f"{blocks_seen} nonzero blocks across m in {{1,2,3}}")


def test_criterion_3_lemma_suite(calculi):
    required = {"clifford_four_fold_split",
                "k_shift_projection", "r_shift_projection",
                "kraines_commutator_jop", "kraines_commutator_jop_second",
                "rotated_basis_product_sum", "rotated_vector_anticommute",
                "mixed_product_kaehler_form", "jop_adapted_expansion",
                "jop_product_jf_fbar", "jop_product_jfbar_f",
                "jop_product_f_jfbar", "jop_product_fbar_jf",
                "jop_jop_sum_f_fbar", "jop_jop_sum_fbar_f",
                "block_scalar_mixed_sum", "block_scalar_mixed_sum_conj",
                "block_scalar_difference"}
    ok = True
    total = 0
    for m in M_VALUES:
        calc = calculi[m]
        rep = verify_lemma_identities(calc)
        ok = ok and _exact_clean(rep)
        ids = {e.check_id for e in rep.entries}
        ok = ok and required <= ids
        # restriction scalars certified on every nonzero block
        scalar_subjects = {e.subject for e in rep.entries
                           if e.check_id == "block_scalar_mixed_sum"}
        ok = ok and len(scalar_subjects) == len(calc.world.dec.nonzero_blocks())
        total += rep.counts()["pass"]
    _verdict(3, "operator-identity suite exact-zero incl. restriction scalars",
             ok, f"{total} identities")


def test_criterion_4_constants_reproduction(calculi):
    ok = True
    total = 0
    for m in (*M_VALUES, 4):
        calc = calculi[m] if m in calculi else _calculus(m)
        rep = constants_report(calc)
        expected = 4 * len(calc.world.dec.nonzero_blocks())
        ok = ok and _exact_clean(rep) and rep.counts()["pass"] == expected
        total += expected
    _verdict(4, "computed block constants equal closed forms exactly", ok,
             f"{total} (r,k,variant) comparisons over m in {{1,2,3,4}}")


def test_criterion_5_bound_coefficients():
    ok = True
    for m in range(1, 51):
        uni = universal_coefficient(m)
        ok = ok and uni == Fraction(m + 3, m + 2)
        ok = ok and uni == bound_case_A(m, 0, m).first.value
    ok = ok and universal_coefficient(2) == Fraction(5, 4)
    ok = ok and universal_coefficient(3) == Fraction(6, 5)
    rep = bound_property_report(50)
    counts = rep.counts()
    ok = ok and rep.ok and counts["fail"] == 0
    _verdict(5, "universal coefficient (m+3)/(m+2), enumerated properties",
             ok, f"5/4 at m=2, 6/5 at m=3; {counts['pass']} property checks")


def test_criterion_6_rotation_search():
    # every integer vector is searched as drawn, and for r >= 1 also with
    # coordinate 0 set to 0 (redrawn while the rest is zero): that one has no
    # top component at the identity, so its search must find a rotation past
    # it, within the r + 1 that always suffice
    budget, trials = 1000, 100
    exhaustions = 0
    searches = 0
    sampled = 0
    for r in range(11):
        irrep = build_irrep(r)
        for trial in range(trials):
            rng = np.random.default_rng([2026, r, trial])
            v = random_vector(rng, irrep.dim)
            vectors = [v]
            if r:
                vectors.append([0] + (v[1:] if any(v[1:]) else random_vector(rng, r)))
            for vector in vectors:
                outcome = find_rotation_with_top_component(irrep, vector, budget=budget)
                searches += 1
                exhaustions += 0 if outcome.found else 1
                if vector is not v:
                    sampled += outcome.found and 2 <= outcome.samples_used <= r + 1
    _verdict(6, "top-weight rotation found for every sampled vector",
             exhaustions == 0 and sampled == 10 * trials,
             f"{searches} searches (r<=10, budget {budget}), "
             f"{exhaustions} exhaustions, {sampled} found past the identity")


def test_criterion_7_negative_control(tmp_path):
    clean_path = tmp_path / "clean.json"
    flipped_path = tmp_path / "flipped.json"
    rc_clean = cli.main(["verify", "--m", "1", "--out", str(clean_path)])
    rc_flip = cli.main(["verify", "--m", "1", "--flip-gamma", "0",
                        "--out", str(flipped_path)])
    clean = json.loads(clean_path.read_text())
    flipped = json.loads(flipped_path.read_text())
    fail_ids = {f["check_id"] for f in flipped["failures"]}
    witnesses = [f for f in flipped["failures"] if f["residual"] not in ("", "0")]
    ok = (rc_clean == 0 and clean["ok"] is True
          and rc_flip == 1 and flipped["ok"] is False
          and "block_projector_eigen" in fail_ids      # spectra layer
          and "k_shift_projection" in fail_ids         # lemma layer
          and "block_constant_match" in fail_ids       # constants layer
          and len(witnesses) > 0)
    _verdict(7, "flipped generator breaks spectra/lemmas/constants via CLI",
             ok, f"exit {rc_flip}, {len(flipped['failures'])} failures, "
                 f"{len(witnesses)} residual witnesses")
