"""The exact and float backends must reach the same verdict on every check."""

import json
import math

import pytest

from quatspin import cli


def report_rows(argv, capsys):
    rc = cli.main(argv)
    out, _ = capsys.readouterr()
    return rc, json.loads(out)["entries"]


def verdicts(rows):
    return [(e["segment"], e["check_id"], e["subject"], e["status"]) for e in rows]


@pytest.mark.parametrize("argv, expect_fail", [
    (["verify", "--m-range", "1..2"], False),
    (["verify", "--m", "1", "--flip-gamma", "2"], True),
    (["verify", "--m", "3"], False),
    (["verify", "--m", "4"], False),
])
def test_backends_give_the_same_verdicts(argv, expect_fail, capsys):
    rc_exact, exact = report_rows(argv + ["--backend", "exact"], capsys)
    rc_float, flt = report_rows(argv + ["--backend", "float"], capsys)
    assert verdicts(exact) == verdicts(flt)
    assert rc_exact == rc_float == (1 if expect_fail else 0)
    assert any(e["status"] == "fail" for e in exact) == expect_fail


def test_backends_give_the_same_failure_residuals(capsys):
    argv = ["verify", "--m", "1", "--flip-gamma", "2"]
    _, exact = report_rows(argv + ["--backend", "exact"], capsys)
    _, flt = report_rows(argv + ["--backend", "float"], capsys)
    failing = [(e, f) for e, f in zip(exact, flt) if e["status"] == "fail"]
    assert failing
    for e, f in failing:
        assert (e["residual"] == f["residual"]
                or math.isclose(float(e["residual"]), float(f["residual"]),
                                rel_tol=1e-9)), (e, f["residual"])
