"""The package's records are immutable, and a world is one object.

Every record is a `typing.NamedTuple`: an attribute cannot be assigned, a
changed copy comes from `_replace`.
"""

import importlib
import pkgutil

import pytest

import quatspin
from quatspin.bounds import comparison_bounds, configuration_rows
from quatspin.cli import CommandResult
from quatspin.clifford import build_clifford_model
from quatspin.decomposition import build_world
from quatspin.projectors import ProjectorCalculus, block_constants
from quatspin.quaternionic import build_adapted_basis
from quatspin.report import bool_entry
from quatspin.so3 import build_irrep, find_rotation_with_top_component
from quatspin.symmetry import certify_line_symmetry

RECORDS = sorted(
    (obj for info in pkgutil.iter_modules(quatspin.__path__)
     for obj in vars(importlib.import_module(f"quatspin.{info.name}")).values()
     if isinstance(obj, type) and issubclass(obj, tuple)
     and obj.__module__ == f"quatspin.{info.name}"),
    key=lambda cls: cls.__qualname__)


@pytest.fixture(scope="module")
def instances():
    """One instance of each record, taken from real runs at small sizes."""
    world = build_world(build_clifford_model(1))
    cert = certify_line_symmetry(world)
    search = find_rotation_with_top_component(build_irrep(1), [1, 0])
    row = configuration_rows(2)[0]
    found = [world, world.model, world.triple, world.ops, world.dec,
             world.dec.nonzero_blocks()[0], build_adapted_basis(world.model, world.triple),
             block_constants(ProjectorCalculus(world))[0], cert, cert.lifts[0],
             build_irrep(1), search, search.rotation,
             row, row.first, comparison_bounds(2),
             bool_entry("check", "subject", True), CommandResult(0, {}, [])]
    return {type(x): x for x in found}


def test_every_record_has_an_instance(instances):
    assert set(RECORDS) == set(instances)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_a_record_rejects_assignment(cls, instances):
    record = instances[cls]
    for name in (*cls._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)

