"""The exact and float backends must reach the same verdict on every check.

Float is confined to the spinor-space operators: the R^{4m} layer (triple,
adapted basis, line-lift signed permutations) and the stated spectra are
exact in both backends, and the so(3) layer has no float backend.
"""

import json
import math

import pytest

from quatspin import cli, symmetry
from quatspin.clifford import build_clifford_model
from quatspin.decomposition import build_world
from quatspin.exact import DenseMatrix, _Nonzeros
from quatspin.quaternionic import build_adapted_basis
from quatspin.sparse import SparseMatrix


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


def _matrices(obj):
    """Every matrix reachable from obj through tuples (records among them),
    lists and dicts."""
    if isinstance(obj, _Nonzeros):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return [x for item in obj for x in _matrices(item)]
    return []


@pytest.mark.parametrize("m", [1, 2])
def test_float_lives_only_on_the_spinor_operators(m, monkeypatch):
    world = build_world(build_clifford_model(m, kind="float"))
    n, size = world.model.n, world.model.spinor_dim
    assert all(isinstance(j, SparseMatrix) for j in world.triple.j)
    basis = build_adapted_basis(world.model, world.triple)
    assert all(isinstance(x, SparseMatrix) for x in basis.f + basis.f_bar)
    # every matrix of the world is exact or a spinor-space operator
    held = _matrices(world)
    assert any(isinstance(x, DenseMatrix) for x in held)
    for x in held:
        assert isinstance(x, SparseMatrix) or (x.rows, x.cols) == (size, size)
    # rho, the signed permutation of each lift, meets the triple in the
    # "generators" claim of the certificate
    rhos = []
    commutator = symmetry.commutator

    def spy(a, b, terms=()):
        if any(b is j for j in world.triple.j):
            rhos.append(a)
        return commutator(a, b, terms)

    monkeypatch.setattr(symmetry, "commutator", spy)
    certificate = symmetry.certify_line_symmetry(world)
    assert certificate.ok
    assert len(rhos) == 3 * len(certificate.lifts)
    assert all(isinstance(rho, SparseMatrix) and (rho.rows, rho.cols) == (n, n)
               for rho in rhos)
