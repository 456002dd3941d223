"""The exact and float backends must reach the same verdict on every check."""

import json

import pytest

from quatspin import cli


def verdicts(argv, capsys):
    rc = cli.main(argv)
    out, _ = capsys.readouterr()
    rows = json.loads(out)["entries"]
    return rc, [(e["segment"], e["check_id"], e["subject"], e["status"])
                for e in rows]


@pytest.mark.parametrize("argv, expect_fail", [
    (["verify", "--m-range", "1..2"], False),
    (["verify", "--m", "1", "--flip-gamma", "2"], True),
])
def test_backends_give_the_same_verdicts(argv, expect_fail, capsys):
    rc_exact, exact = verdicts(argv + ["--backend", "exact"], capsys)
    rc_float, flt = verdicts(argv + ["--backend", "float"], capsys)
    assert exact == flt
    assert rc_exact == rc_float == (1 if expect_fail else 0)
    assert any(status == "fail" for *_, status in exact) == expect_fail
