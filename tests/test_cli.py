import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quatspin import cli, decomposition, projectors, quaternionic
from quatspin.clifford import build_clifford_model
from quatspin.decomposition import build_world
from quatspin.errors import IdentityFailure


def run(argv, capsys):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_verify_clean_run(capsys):
    rc, out, err = run(["verify", "--m", "1"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["counts"]["fail"] == 0
    assert data["counts"]["pass"] > 300
    assert data["m_values"] == [1]
    assert data["flip_gamma"] is None
    assert "1" in data["model_hashes"]
    segments = {e["segment"] for e in data["entries"]}
    assert segments == {"m=1", "so3"}
    assert data["failures"] == []


def test_verify_negative_control(capsys):
    rc, out, err = run(["verify", "--m", "1", "--flip-gamma", "0"], capsys)
    assert rc == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["flip_gamma"] == 0
    fail_ids = {f["check_id"] for f in data["failures"]}
    # witnesses from the decomposition, lemma, and constant layers
    assert "block_projector_eigen" in fail_ids
    assert "block_constant_match" in fail_ids
    assert "k_shift_projection" in fail_ids
    for f in data["failures"]:
        assert f["status"] == "fail"


def test_verify_m_range(capsys):
    rc, out, err = run(["verify", "--m-range", "1..1"], capsys)
    assert rc == 0
    assert json.loads(out)["m_values"] == [1]


def test_verify_resource_cap(capsys):
    rc, out, err = run(["verify", "--m", "9"], capsys)
    assert rc == 3
    assert "cap" in err


def test_verify_conflicting_range_flags(capsys):
    rc, out, err = run(["verify", "--m", "1", "--m-range", "1..2"], capsys)
    assert rc == 2


def test_constants_exact(capsys):
    rc, out, err = run(["constants", "--m", "1"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert len(data["rows"]) == 12  # 3 nonzero blocks x 4 variants
    assert all(row["match"] for row in data["rows"])
    zero_rows = [row for row in data["rows"] if row["closed"] == "0"]
    assert zero_rows and all("normalization undefined" in row["note"]
                             for row in zero_rows)
    by_key = {(r["r"], r["k"], r["variant"]): r["computed"]
              for r in data["rows"]}
    assert by_key[(0, 1, "--")] == "-1"
    assert by_key[(1, 0, "+-")] == "-2"


def test_constants_float_backend(capsys):
    rc, out, err = run(["constants", "--m", "1", "--backend", "float"], capsys)
    assert rc == 0
    assert json.loads(out)["ok"] is True


@pytest.fixture
def offset_constant(monkeypatch):
    # 5e-9 exceeds FLOAT_SCALAR_TOL = 1e-9, so every float judgement of the
    # block constants must reject it
    real = projectors.compute_A

    def off_by_5e_9(calc, r, k, variant):
        got = real(calc, r, k, variant)
        return got + 5e-9 if (r, k, variant) == (1, 0, "+-") else got

    monkeypatch.setattr(projectors, "compute_A", off_by_5e_9)


def test_constants_and_verify_share_the_float_judgement(capsys, offset_constant):
    rc, out, err = run(["constants", "--m", "1", "--backend", "float"], capsys)
    assert rc == 1
    data = json.loads(out)
    assert data["counts"] == {"match": 11, "mismatch": 1}
    assert [(row["r"], row["k"], row["variant"])
            for row in data["rows"] if not row["match"]] == [(1, 0, "+-")]

    rc, out, err = run(["verify", "--m", "1", "--backend", "float"], capsys)
    assert rc == 1
    failures = json.loads(out)["failures"]
    assert [(f["check_id"], f["subject"]) for f in failures] == \
        [("block_constant_match", "m=1 r=1 k=0 variant=+-")]


def test_library_constants_share_the_float_judgement(offset_constant):
    world = build_world(build_clifford_model(1, kind="float"))
    rows = projectors.block_constants(projectors.ProjectorCalculus(world))
    assert [(c.r, c.k, c.variant) for c in rows if not c.ok] == [(1, 0, "+-")]


def test_constants_reports_a_non_scalar_block(capsys, monkeypatch):
    real = projectors.compute_A

    def fails_on_one_block(calc, r, k, variant):
        if (r, k, variant) == (0, 1, "+-"):
            raise IdentityFailure("p_0^- does not annihilate block (r=0, k=1)", 0.5)
        return real(calc, r, k, variant)

    monkeypatch.setattr(projectors, "compute_A", fails_on_one_block)
    rc, out, err = run(["constants", "--m", "1"], capsys)
    assert rc == 1
    assert err == ""
    data = json.loads(out)
    assert data["ok"] is False
    assert data["counts"] == {"match": 11, "mismatch": 1}
    assert len(data["rows"]) == 12
    bad = [row for row in data["rows"] if not row["match"]]
    assert [(row["r"], row["k"], row["variant"]) for row in bad] == [(0, 1, "+-")]
    assert bad[0]["note"].startswith("not scalar on block")
    assert bad[0]["computed"] is None

    rc, out, err = run(["verify", "--m", "1"], capsys)
    assert rc == 1
    failures = json.loads(out)["failures"]
    assert [(f["check_id"], f["subject"], f["residual"]) for f in failures] == \
        [("block_constant_match", "m=1 r=0 k=1 variant=+-", "5.000e-01")]


def test_bounds_payload(capsys):
    rc, out, err = run(["bounds", "--m", "2", "--kappa", "4"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["universal"] == {"coefficient": "5/4", "value": "5/4"}
    assert data["kappa"] == "4"
    assert data["comparisons"]["friedrich"] == "8/7"
    assert data["comparisons"]["applicable_parity"] == "even"
    assert len(data["rows"]) == 6
    degenerate = [row for row in data["rows"]
                  if row["second"]["flag"] == "degenerate"]
    assert degenerate
    assert all(row["second"]["coefficient"] is None for row in degenerate)


def test_bounds_kappa_scaling(capsys):
    rc, out, err = run(["bounds", "--m", "2", "--kappa", "1/2"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["universal"]["coefficient"] == "5/4"
    assert data["universal"]["value"] == "5/32"  # (5/4) * (1/2) / 4


def test_bounds_usage_errors(capsys):
    assert run(["bounds", "--kappa", "0"], capsys)[0] == 2
    assert run(["bounds", "--kappa", "-1/3"], capsys)[0] == 2
    assert run(["bounds", "--kappa", "abc"], capsys)[0] == 2
    assert run(["bounds", "--m", "0"], capsys)[0] == 2


def test_bounds_rejects_options_it_never_reads(capsys):
    # the bound table is exact closed forms: no backend or seed
    for option in (["--backend", "float"], ["--seed", "3"]):
        rc, out, err = run(["bounds", "--m", "2", *option], capsys)
        assert rc == 2, option
        assert out == ""


def test_constants_rejects_a_seed(capsys):
    # nothing in the constants is sampled
    rc, out, err = run(["constants", "--m", "1", "--seed", "3"], capsys)
    assert rc == 2
    assert out == ""


def test_bounds_csv_projection(capsys):
    rc, out, err = run(["bounds", "--m", "2", "--format", "csv"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("r,k,case,first_a,")
    assert len(lines) == 7
    degenerate_lines = [l for l in lines if "degenerate" in l]
    assert degenerate_lines and all(",," in l for l in degenerate_lines)


def test_decompose_schema(capsys):
    rc, out, err = run(["decompose", "--m", "1"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["spinor_dim"] == 4 and data["dim_sum"] == 4
    assert [(b["r"], b["k"], b["dim"]) for b in data["blocks"]] == \
        [(0, 1, 2), (1, 0, 1), (1, 2, 1)]
    for b in data["blocks"]:
        assert b["omega_eig"] == 6 - 4 * b["r"] * (b["r"] + 2)
        assert b["omega1_eig_im"] == 2 - 2 * b["k"]


def test_decompose_table_grid(capsys):
    rc, out, err = run(["decompose", "--m", "2", "--format", "table"], capsys)
    assert rc == 0
    assert "dim sum = 16 = 2^{2m} = 16" in out
    assert "r=2" in out and "k=4" in out


def test_so3_check(capsys):
    rc, out, err = run(["so3-check", "--max-r", "3", "--trials", "5"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["total_exhaustions"] == 0
    assert data["ok"] is True
    assert [row["r"] for row in data["rows"]] == [0, 1, 2, 3]
    assert all(row["successes"] == 5 for row in data["rows"])
    # the default command walks past the identity: some vector has v_0 = 0
    assert data["backend"] == "exact"
    assert max(row["max_samples_used"] for row in data["rows"]) >= 2
    assert all(row["max_samples_used"] <= row["r"] + 1 for row in data["rows"])


def test_so3_check_draws_from_one_generator_per_run(monkeypatch, capsys):
    made = []
    default_rng = np.random.default_rng

    def counted(*args):
        made.append(args)
        return default_rng(*args)

    monkeypatch.setattr(np.random, "default_rng", counted)
    assert run(["so3-check", "--max-r", "3", "--trials", "5", "--seed", "7"], capsys)[0] == 0
    assert made == [(7,)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_benchmark_searches_stop_by_sample_r_plus_1(seed, capsys):
    # the so3-exact-search workload's command: every one of its 1,320
    # searches ends within the r + 1 rotations whose top eigenvectors span
    argv = ["so3-check", "--backend", "exact", "--max-r", "10", "--trials", "120",
            "--budget", "1000", "--seed", str(seed)]
    rc, out, err = run(argv, capsys)
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert [row["successes"] for row in rows] == [120] * 11
    assert all(row["max_samples_used"] <= row["r"] + 1 for row in rows)


def test_so3_check_is_exact_only(capsys):
    rc, out, err = run(["so3-check", "--backend", "float", "--max-r", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert "invalid choice" in err and "Traceback" not in err
    argv = ["so3-check", "--max-r", "3", "--trials", "5"]
    assert run(argv, capsys) == run(argv + ["--backend", "exact"], capsys)


def test_byte_stable_output(capsys):
    first = run(["verify", "--m", "1"], capsys)[1]
    second = run(["verify", "--m", "1"], capsys)[1]
    assert first == second
    a = run(["so3-check", "--max-r", "2", "--trials", "4", "--format", "csv"],
            capsys)[1]
    b = run(["so3-check", "--max-r", "2", "--trials", "4", "--format", "csv"],
            capsys)[1]
    assert a == b


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, out, err = run(["constants", "--m", "1", "--out", str(path)], capsys)
    assert rc == 0
    assert out == ""
    assert json.loads(path.read_text())["ok"] is True
    assert path.read_bytes() == run(["constants", "--m", "1"], capsys)[1].encode()


def test_an_unwritable_out_path_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # the file is opened before the command runs: no handler is called
    def refuse(args):
        raise AssertionError("the command ran before its --out file was opened")
    monkeypatch.setattr(cli, "cmd_bounds", refuse)
    missing = tmp_path / "no-such-dir" / "x.json"
    for path in (missing, tmp_path):
        rc, out, err = run(["bounds", "--m", "1", "--out", str(path)], capsys)
        assert rc == 2, path
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ") and "Traceback" not in err
    assert not missing.parent.exists()


def test_usage_exit_codes(capsys):
    assert run([], capsys)[0] == 2
    assert run(["unknown"], capsys)[0] == 2
    assert run(["verify", "--format", "xml"], capsys)[0] == 2
    assert run(["verify", "--m-range", "3..1"], capsys)[0] == 2


def test_no_subcommand_takes_a_tolerance_or_threshold(capsys):
    # float tolerances are constants of the float backend, not options
    for command in ("verify", "constants", "bounds", "decompose", "so3-check"):
        for option in ("--tolerance", "--threshold"):
            rc, out, err = run([command, option, "1e-3"], capsys)
            assert rc == 2, (command, option)
            assert out == ""


def test_only_float_reports_state_a_tolerance(capsys):
    # no exact check applies FLOAT_TOL, so an exact report does not state it
    for command in ("verify", "constants"):
        for backend, stated in (("exact", False), ("float", True)):
            out = run([command, "--m", "1", "--backend", backend], capsys)[1]
            assert ("tolerance" in json.loads(out)) is stated, (command, backend)


def test_flip_gamma_out_of_range(capsys):
    rc, out, err = run(["verify", "--m", "1", "--flip-gamma", "99"], capsys)
    assert rc == 2
    assert "generator index" in err or "99" in err


def _replace_everywhere(monkeypatch, original, replacement):
    """Bind `replacement` wherever a quatspin module holds `original`."""
    for name, module in list(sys.modules.items()):
        if name == "quatspin" or name.startswith("quatspin."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


def test_flip_gamma_is_checked_before_any_world(capsys, monkeypatch):
    # the index is checked against every requested m before the first
    # decomposition: at m = 8 that one would take about 30 s
    def refuse(model, ops):
        raise AssertionError("decompose called before the index was checked")

    _replace_everywhere(monkeypatch, decomposition.decompose, refuse)
    monkeypatch.setenv("QUATSPIN_MAX_M", "8")
    for argv, message in ((["--m", "8", "--flip-gamma", "99"], "99 out of range 0..31"),
                          (["--m-range", "2..3", "--flip-gamma", "9"], "9 out of range 0..7")):
        rc, out, err = run(["verify", *argv], capsys)
        assert rc == 2 and out == ""
        assert err == f"error: generator index {message}\n"


@pytest.fixture
def world_work(monkeypatch):
    """The m of every call of the three stages a world is made of."""
    calls = {"build_kaehler_operators": [], "decompose": [], "ProjectorCalculus": []}

    def counted(name, fn, m_of):
        def wrapper(*args):
            calls[name].append(m_of(args))
            return fn(*args)
        return wrapper

    for module, name in ((quaternionic, "build_kaehler_operators"), (decomposition, "decompose")):
        original = getattr(module, name)
        _replace_everywhere(monkeypatch, original,
                            counted(name, original, lambda args: args[0].m))
    init = projectors.ProjectorCalculus.__init__
    monkeypatch.setattr(projectors.ProjectorCalculus, "__init__", counted(
        "ProjectorCalculus", init, lambda args: args[1].model.m))
    return calls


@pytest.mark.parametrize("argv, expect", [
    (["decompose", "--m", "2"],
     {"build_kaehler_operators": [2], "decompose": [2], "ProjectorCalculus": []}),
    (["verify", "--m-range", "1..2"],
     {"build_kaehler_operators": [1, 2], "decompose": [1, 2], "ProjectorCalculus": [1, 2]}),
    # the stated decomposition is the standard world's, made once
    (["verify", "--m", "1", "--flip-gamma", "0"],
     {"build_kaehler_operators": [1, 1], "decompose": [1], "ProjectorCalculus": [1]}),
])
def test_each_command_builds_one_world_per_m(argv, expect, world_work, capsys):
    # a guard, free of timing, on the work of the decompose and verify
    # benchmark workloads
    run(argv, capsys)
    assert world_work == expect


@pytest.mark.parametrize("argv, digest", [
    (["verify", "--m", "2"],
     "87fb2f74f128478dc9829db232f1b3e104b17c7e8a5cdf94986fb51f63f37f94"),
    (["verify", "--m", "2", "--backend", "float"],
     "002706ade1945a9d135b16b4e56be6bd550d8f482ecc60c7522184d1cef62b45"),
    (["constants", "--m", "2", "--backend", "float"],
     "282314e5d76ff0dfbcee5da30ec96ea7413d89ae9ab8162784999d5f07dcda3d"),
    (["decompose", "--m", "2", "--backend", "float"],
     "2e8322995d3805eab21da9b783cd13c8223d552d7aed7f4dd4a97fa95171616f"),
    (["so3-check", "--max-r", "3", "--trials", "5"],
     "a80aec43b80ee0caf4e9c66de5091742b7821cd15f95f2962709118ed4425636"),
    # failing float residuals: the digits an exactly stated spectrum could move
    (["verify", "--m", "2", "--flip-gamma", "5", "--backend", "float"],
     "973757c06a10f2543a4b7d3c5d7de6b5c413de96778286676de15d01d1c99ae8"),
    (["so3-check", "--backend", "exact", "--max-r", "10", "--trials", "120", "--seed", "1"],
     "3f3f6b0379843d7ab4e3b44095db3f37d282ca234f9c5b3abc74ed44ac10c79b"),
    # the benchmark's commands that read the decomposition
    (["decompose", "--m", "4"],
     "fe9b63463608781cadcb2f8607427b14b00974520be2b44d996807dc5735dd3e"),
    (["verify", "--m", "3"],
     "bb5a7fcf9380c05341fa1ba7f6ff1c83d1934bfd907be6d9f2611ac129aef931"),
    # failing float residuals: the digits a reordered float product could move
    (["verify", "--m", "3", "--flip-gamma", "7", "--backend", "float"],
     "1464281e19a3432919a5512d7bb4ed4f8c1ffd3a4f8aa687941cf1f9e59ea37b"),
])
def test_canonical_json_is_pinned(argv, digest, capsys):
    # the SHA-256 of the default-option canonical JSON, fixed so that a
    # refactor cannot move a byte of what the commands print
    out = run(argv, capsys)[1]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["verify", "--m", "2", "--format", "csv"],
     "20d97f79ecfa4ef19d25862b851b52ab050d2478eac4867aaeb545758602222d"),
    (["decompose", "--m", "2", "--format", "table"],
     "5098651ec4f8d1c2dc069b79d5d1c806749b7d07df636db1d4b5b19603ff3d87"),
    (["bounds", "--m", "2", "--format", "table"],
     "ab7825a376b694813c41767ab6c9921df4e94fb83ad4e88ffafbea680c97ee0d"),
])
def test_csv_and_table_output_is_pinned(argv, digest, capsys):
    # the csv rows, the decompose grid and the generic table, as the
    # canonical JSON pins above
    out = run(argv, capsys)[1]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_render_memory_does_not_grow_with_the_report(tmp_path):
    # the report is written as it is encoded: rendering it never holds the
    # whole text (a join of every chunk held about 7 times its length)
    args = cli.build_parser().parse_args(["verify", "--m", "3"])
    result = args.handler(args)
    path = tmp_path / "report.json"
    with open(path, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            cli._render(result, "json", fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert json.loads(path.read_text())["ok"] is True
    assert peak < path.stat().st_size


def _child_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_a_reader_that_closes_early_ends_the_run_quietly():
    # the report (about 200 KB) outgrows the pipe, so the run writes to a
    # closed pipe: no traceback, and the exit code is still the verdict's
    proc = subprocess.Popen([sys.executable, "-m", "quatspin.cli", "verify", "--m", "3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    assert proc.stdout.read(10) == b'{\n  "backe'
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 0


def _top_level_modules(statement):
    """The top-level names in sys.modules of a fresh interpreter after statement."""
    code = f"{statement}\nimport sys\nprint(*{{n.split('.')[0] for n in sys.modules}})"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_child_env(), check=True, timeout=60).stdout
    return set(out.split())


def test_the_cli_loads_no_third_party_module_but_numpy():
    # every command's start-up pays for what `import quatspin.cli` loads;
    # site hooks (.pth files) load the same modules with or without it
    added = _top_level_modules("import quatspin.cli") - _top_level_modules("pass")
    assert added - set(sys.stdlib_module_names) <= {"numpy", "quatspin"}
