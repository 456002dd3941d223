"""Correctness checks for the reports of the benchmarked quatspin commands.

Each check compares a report with facts computed here, apart from the
program: the branching formula for block dimensions, the eigenvalue
formulas, the parity lattice of the (r, k) blocks, the check families the
acceptance criteria require, and, for traced rotation searches, a float
eigendecomposition of the rotated generator built from the so(3) ladder
formulas.  A check returns a Verdict: operations attempted, operations
failed, and the problems found (none when the output is correct).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# Check families that acceptance criteria 1-3 (tests/test_acceptance.py)
# require in every verify run.
STRUCTURE_FAMILIES = frozenset({
    "quaternion_relations", "hk_orthogonality", "hk_adaptedness",
    "clifford_anticommutation", "kaehler_commutators", "sl2_relations",
    "casimir_identity"})
DECOMPOSITION_FAMILIES = frozenset({"clifford_neighbor_blocks", "block_lattice",
                                    "block_projector_eigen"})
LEMMA_FAMILIES = frozenset({
    "clifford_four_fold_split", "k_shift_projection", "r_shift_projection",
    "kraines_commutator_jop", "kraines_commutator_jop_second",
    "rotated_basis_product_sum", "rotated_vector_anticommute",
    "mixed_product_kaehler_form", "jop_adapted_expansion",
    "jop_product_jf_fbar", "jop_product_jfbar_f", "jop_product_f_jfbar",
    "jop_product_fbar_jf", "jop_jop_sum_f_fbar", "jop_jop_sum_fbar_f",
    "block_scalar_weight", "block_scalar_kraines", "block_scalar_mixed_sum",
    "block_scalar_mixed_sum_conj", "block_scalar_difference"})
REQUIRED_FAMILIES = STRUCTURE_FAMILIES | DECOMPOSITION_FAMILIES | LEMMA_FAMILIES

# Families with rows per nonzero block; their subjects name "r=R k=K".
BLOCK_FAMILIES = ("block_projector_eigen", "weight_consistency",
                  "block_scalar_weight", "block_scalar_kraines",
                  "block_scalar_mixed_sum", "block_scalar_mixed_sum_conj",
                  "block_scalar_difference", "block_constant_match")
_BLOCK_SUBJECT = re.compile(r"\br=(\d+) k=(\d+)\b")


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list = field(default_factory=list)


def lattice_blocks(m):
    """(r, k) with k + r - m even and 0 <= (k + r - m)/2 <= r."""
    return {(r, k) for r in range(m + 1) for k in range(2 * m + 1)
            if (k + r - m) % 2 == 0 and 0 <= (k + r - m) // 2 <= r}


def branching_dimension(m, r):
    """dim S_r^k = C(2m, m-r) - C(2m, m-r-2) on the lattice."""
    low = math.comb(2 * m, m - r - 2) if m - r - 2 >= 0 else 0
    return math.comb(2 * m, m - r) - low


def _no_report(code):
    return Verdict(1, 1, [f"no report (exit code {code})"])


def check_verify(m, backend):
    """Check a `quatspin verify --m M --backend B` report; one operation per row."""
    def check(code, report):
        if report is None:
            return _no_report(code)
        entries = report.get("entries", [])
        failed = sum(1 for e in entries if e.get("status") == "fail")
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if report.get("ok") is not True:
            problems.append("report is not ok")
        if failed:
            problems.append(f"{failed} fail rows")
        if report.get("backend") != backend or report.get("m_values") != [m]:
            problems.append("report is for another configuration")
        segment = f"m={m}"
        if {e.get("segment") for e in entries} != {segment, "so3"}:
            problems.append("segments are not {m, so3}")
        rows = [e for e in entries if e.get("segment") == segment]
        missing = REQUIRED_FAMILIES - {e.get("check_id") for e in rows}
        if missing:
            problems.append(f"missing check families {sorted(missing)}")
        blocks = lattice_blocks(m)
        for family in BLOCK_FAMILIES:
            covered = {tuple(map(int, _BLOCK_SUBJECT.search(e["subject"]).groups()))
                       for e in rows if e.get("check_id") == family
                       and _BLOCK_SUBJECT.search(e.get("subject", ""))}
            if covered != blocks:
                problems.append(f"{family} covers {len(covered)} blocks, "
                                f"not the {len(blocks)} nonzero blocks")
        lattice_rows = sum(1 for e in rows if e.get("check_id") == "block_lattice")
        if lattice_rows != (m + 1) * (2 * m + 1):
            problems.append(f"{lattice_rows} block_lattice rows for a "
                            f"{m + 1}x{2 * m + 1} grid")
        return Verdict(max(len(entries), 1), failed if entries else 1, problems)
    return check


def check_decompose(m, backend):
    """Check a `quatspin decompose` report; one operation per lattice block."""
    def check(code, report):
        if report is None:
            return _no_report(code)
        expected = lattice_blocks(m)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if report.get("backend") != backend or report.get("m") != m:
            problems.append("report is for another configuration")
        if report.get("spinor_dim") != 4 ** m:
            problems.append(f"spinor_dim {report.get('spinor_dim')} != 4^{m}")
        blocks = report.get("blocks", [])
        by_pos = {(b.get("r"), b.get("k")): b for b in blocks}
        extra = set(by_pos) - expected
        if extra or len(by_pos) != len(blocks):
            problems.append(f"blocks off the lattice or repeated: {sorted(extra)}")
        failed = 0
        for r, k in sorted(expected):
            b = by_pos.get((r, k))
            want = (branching_dimension(m, r), 6 * m - 4 * r * (r + 2), 2 * m - 2 * k)
            got = None if b is None else (b.get("dim"), b.get("omega_eig"),
                                          b.get("omega1_eig_im"))
            if got != want:
                failed += 1
                problems.append(f"block (r={r}, k={k}): (dim, omega, im) "
                                f"{got} != {want}")
        total = sum(b.get("dim", 0) for b in blocks)
        if total != 4 ** m or report.get("dim_sum") != 4 ** m:
            problems.append(f"dimensions sum to {total} "
                            f"(reported {report.get('dim_sum')}), not 4^{m}")
        return Verdict(len(expected), failed, problems)
    return check


def check_so3(max_r, trials):
    """Check a `quatspin so3-check` report; one operation per search."""
    def check(code, report):
        if report is None:
            return _no_report(code)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        exhaustions = report.get("total_exhaustions")
        if report.get("ok") is not True or exhaustions != 0:
            problems.append(f"{exhaustions} search exhaustions")
        rows = report.get("rows", [])
        if [row.get("r") for row in rows] != list(range(max_r + 1)):
            problems.append("rows do not cover r = 0..max_r")
        budget = report.get("budget")
        for row in rows:
            if (row.get("trials"), row.get("successes"), row.get("exhaustions")) \
                    != (trials, trials, 0):
                problems.append(f"r={row.get('r')}: {row.get('successes')} of "
                                f"{row.get('trials')} searches found a rotation")
            if not 1 <= row.get("max_samples_used", 0) <= (budget or 0):
                problems.append(f"r={row.get('r')}: samples used out of range")
        failed = sum(row.get("exhaustions", 0) for row in rows) if rows else 1
        return Verdict((max_r + 1) * trials, failed, problems)
    return check


def top_weight_component(r, first_row, vector):
    """|component of `vector` in the top eigenspace of sum_b g_0b H_(b+1)|.

    The generators come from the ladder formulas in the orthonormal weight
    basis e_s, where H1 = diag(r - 2s), H2 = X + X^T, H3 = -i(X - X^T) with
    X e_s = sqrt(s(r-s+1)) e_(s-1), so the rotated generator is Hermitian and
    numpy's eigh applies.  The program's weight basis is v_s = c_s e_s with
    c_s = c_(s-1) sqrt(s(r-s+1)), c_0 = 1; the spectral projector in program
    coordinates is diag(c)^-1 u u^H diag(c) for the top eigenvector u.
    """
    n = r + 1
    ladder = np.array([math.sqrt(s * (r - s + 1)) for s in range(1, n)])
    x = np.diag(ladder, 1).astype(np.complex128)
    h = (np.diag(np.arange(r, -r - 1, -2)).astype(np.complex128),
         x + x.T, -1j * (x - x.T))
    g = sum(float(Fraction(c)) * hb for c, hb in zip(first_row, h))
    values, vectors = np.linalg.eigh(g)
    top = vectors[:, int(np.argmax(values))]
    scale = np.cumprod(np.concatenate(([1.0], ladder)))
    coords = np.array([float(Fraction(c)) for c in vector]) * scale
    return float(np.linalg.norm(top * np.vdot(top, coords) / scale)), float(values.max())


def check_searches(searches, max_r, trials):
    """Confirm each traced search's rotation exposes a top-weight component."""
    problems = []
    if len(searches) != (max_r + 1) * trials:
        problems.append(f"{len(searches)} traced searches, "
                        f"expected {(max_r + 1) * trials}")
    for s in searches:
        if not s["found"]:
            continue
        r = s["r"]
        size, top = top_weight_component(r, s["first_row"], s["vector"])
        norm = math.sqrt(sum(float(Fraction(c)) ** 2 for c in s["vector"]))
        if abs(top - r) > 1e-9 * max(r, 1):
            problems.append(f"r={r}: rotated generator has top eigenvalue {top}")
        elif size <= 1e-8 * norm or abs(size - s["magnitude"]) > 1e-6 * norm:
            problems.append(f"r={r}: float top-weight component {size:.3e}, "
                            f"program reports {s['magnitude']:.3e}")
    return problems
