"""Tests for the benchmark: each check rejects a corrupted report, and the
harness runs end to end on tiny inputs (m = 1, 2).

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import checks
import run
from conftest import BENCH, ROOT
from quatspin import cli
from quatspin.so3 import build_irrep, highest_weight_component, rotation_from_quaternion


def cli_report(tmp_path, *argv):
    path = tmp_path / "report.json"
    code = cli.main([*argv, "--out", str(path)])
    return code, json.loads(path.read_text())


@pytest.fixture(scope="module")
def verify_m1(tmp_path_factory):
    return cli_report(tmp_path_factory.mktemp("v"), "verify", "--m", "1")


@pytest.fixture(scope="module")
def decompose_m2(tmp_path_factory):
    return cli_report(tmp_path_factory.mktemp("d"), "decompose", "--m", "2")


def test_branching_formula_fills_the_spinor_space():
    for m in range(1, 8):
        blocks = checks.lattice_blocks(m)
        assert sum(checks.branching_dimension(m, r) for r, _ in blocks) == 4 ** m
        assert all(checks.branching_dimension(m, r) > 0 for r, _ in blocks)


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_decompose_check_accepts_program_output(tmp_path, m, backend):
    code, report = cli_report(tmp_path, "decompose", "--m", str(m), "--backend", backend)
    verdict = checks.check_decompose(m, backend)(code, report)
    assert verdict.problems == []
    assert (verdict.attempted, verdict.failed) == (len(checks.lattice_blocks(m)), 0)


def _corrupt_dimension(report):
    report["blocks"][0]["dim"] += 1


def _corrupt_eigenvalue(report):
    report["blocks"][-1]["omega_eig"] += 4


def _drop_block(report):
    del report["blocks"][0]


def _add_block_off_lattice(report):
    report["blocks"].append({"r": 0, "k": 0, "dim": 0, "omega_eig": 12,
                             "omega1_eig_im": 4})


def _wrong_sum(report):
    report["dim_sum"] -= 1


@pytest.mark.parametrize("corrupt", [_corrupt_dimension, _corrupt_eigenvalue,
                                     _drop_block, _add_block_off_lattice, _wrong_sum])
def test_decompose_check_rejects_corruption(decompose_m2, corrupt):
    code, report = decompose_m2
    report = copy.deepcopy(report)
    corrupt(report)
    assert checks.check_decompose(2, "exact")(code, report).problems


def test_verify_check_accepts_program_output(verify_m1):
    verdict = checks.check_verify(1, "exact")(*verify_m1)
    assert verdict.problems == []
    assert verdict.attempted == len(verify_m1[1]["entries"]) and verdict.failed == 0


def test_verify_check_rejects_flipped_generator(tmp_path):
    code, report = cli_report(tmp_path, "verify", "--m", "1", "--flip-gamma", "0")
    verdict = checks.check_verify(1, "exact")(code, report)
    assert verdict.problems and verdict.failed > 0


def _drop_family(report):
    report["entries"] = [e for e in report["entries"]
                         if e["check_id"] != "kraines_commutator_jop"]


def _drop_block_rows(report):
    report["entries"] = [e for e in report["entries"]
                         if not (e["check_id"] == "block_scalar_weight"
                                 and "r=0 k=1" in e["subject"])]


def _fail_one_row(report):
    report["entries"][5]["status"] = "fail"


def _wrong_m(report):
    report["m_values"] = [2]


@pytest.mark.parametrize("corrupt", [_drop_family, _drop_block_rows,
                                     _fail_one_row, _wrong_m])
def test_verify_check_rejects_corruption(verify_m1, corrupt):
    code, report = verify_m1
    report = copy.deepcopy(report)
    corrupt(report)
    assert checks.check_verify(1, "exact")(code, report).problems


def test_checks_reject_a_missing_report():
    for check in (checks.check_verify(1, "exact"), checks.check_decompose(1, "exact"),
                  checks.check_so3(2, 3)):
        verdict = check(1, None)
        assert verdict.problems and verdict.failed == verdict.attempted == 1


def test_so3_check(tmp_path):
    argv = ["so3-check", "--backend", "exact", "--max-r", "2", "--trials", "3"]
    code, report = cli_report(tmp_path, *argv)
    assert checks.check_so3(2, 3)(code, report).problems == []
    report["rows"][1]["successes"] -= 1
    report["rows"][1]["exhaustions"] += 1
    report["total_exhaustions"] += 1
    report["ok"] = False
    verdict = checks.check_so3(2, 3)(1, report)
    assert verdict.problems and verdict.failed == 1


def test_float_top_weight_agrees_with_exact_program():
    rng = np.random.default_rng(7)
    for r in (0, 1, 4, 10):
        irrep = build_irrep(r, kind="exact")
        for _ in range(3):
            q = [int(x) for x in rng.integers(-9, 10, size=4)]
            v = [int(x) for x in rng.integers(-9, 10, size=r + 1)]
            if not any(q) or not any(v):
                continue
            g = rotation_from_quaternion(*q, kind="exact")
            size, top = checks.top_weight_component(r, g.row(0), v)
            assert top == pytest.approx(r, abs=1e-9)
            assert size == pytest.approx(highest_weight_component(irrep, g, v),
                                         rel=1e-9, abs=1e-9)


def _search(r, row, vector, magnitude):
    return {"r": r, "vector": [str(x) for x in vector],
            "first_row": [str(x) for x in row], "found": True, "samples": 1,
            "magnitude": magnitude}


def test_search_check_rejects_a_hidden_vector():
    identity_row = (Fraction(1), Fraction(0), Fraction(0))
    exposed = _search(2, identity_row, [3, 0, 1], 3.0)
    assert checks.check_searches([exposed], 0, 1) == []
    # under the identity the top-weight component is the first coordinate
    hidden = _search(2, identity_row, [0, 5, 1], 1.0)
    assert checks.check_searches([hidden], 0, 1)
    wrong_size = _search(2, identity_row, [3, 0, 1], 2.0)
    assert checks.check_searches([wrong_size], 0, 1)
    not_a_rotation = _search(2, (Fraction(2), 0, 0), [3, 0, 1], 3.0)
    assert checks.check_searches([not_a_rotation], 0, 1)


TINY = (run.verify_workload("verify-exact-m1", 1, "exact"),
        run.decompose_workload("decompose-exact-m2", 2, "exact"),
        run.verify_workload("verify-float-m2", 2, "float"),
        run.so3_workload("so3-exact-tiny", 3, 4, 100))


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True])
def test_harness_on_tiny_inputs(workload, trace):
    result = run.run_workload(workload, seed=3, seconds=0, trace=trace, root=ROOT)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_harness_reports_a_broken_program():
    broken = run.Workload("verify-flipped", lambda seed: ["verify", "--m", "1",
                                                          "--flip-gamma", "0"],
                          checks.check_verify(1, "exact"))
    result = run.run_workload(broken, seed=0, seconds=0, trace=False, root=ROOT)
    assert result["correct"] is False and result["failed"] > 0


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "verify-exact-m3", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
