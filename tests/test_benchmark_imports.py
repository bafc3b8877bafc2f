"""The benchmark's scripts import only names the package has.

Tier-1 never runs ``perfbench``, so a rename inside ``magicscope`` could
break the benchmark while every other test passes.  This reads the
scripts' import statements, and the attributes they read off the package
modules they import (``rom_module.linprog``, ``cli.main``), with ``ast``
and runs none of them.  It also checks the attributes ``run.py`` reads
off the objects the package returns, on small objects of each type.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

from magicscope.pauli import MeasurementSet
from magicscope.polytope import v_representation
from magicscope.rom import ExpectationVector, reduced_rom
from magicscope.spinchain import SpinChainSpec, SweepRecord, build_hamiltonian, ground_state

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# what run.py reads off each type of object the package returns
RESULT_READS = {
    "VertexSet": ("vertices", "to_json"),
    "RomResult": ("coefficients", "status", "rom"),
    "GroundStateResult": ("state", "energy", "gap_estimate", "degenerate_flag"),
}
# run.py's traced sweep builds a SweepRecord from these, by position
SWEEP_RECORD_FIELDS = (
    "params", "energy", "gap_estimate", "expectations", "rom", "degenerate_flag", "solver_status",
)


def package_imports(script):
    """(module, name) for every ``from magicscope... import name`` in script."""
    tree = ast.parse(script.read_text(encoding="utf-8"), filename=str(script))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "magicscope"
        for alias in node.names
    ]


def module_attributes(script):
    """(module, attribute) for every ``alias.attribute`` read off a ``from magicscope import module``."""
    tree = ast.parse(script.read_text(encoding="utf-8"), filename=str(script))
    modules = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "magicscope"
        for alias in node.names
        if importlib.util.find_spec(f"magicscope.{alias.name}")
    }
    return [
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]


SCRIPTS = ("run.py", "make_reference.py")


def test_every_imported_name_exists():
    imports = [pair for script in SCRIPTS for pair in package_imports(PERFBENCH / script)]
    assert imports  # run.py imports from the package at its top level
    for module, name in imports:
        package = importlib.import_module(module)
        # ``from magicscope import cli`` names a submodule, not an attribute
        submodule = hasattr(package, "__path__") and importlib.util.find_spec(f"{module}.{name}")
        assert hasattr(package, name) or submodule, f"{module} has no {name}"


def test_every_module_attribute_read_exists():
    reads = {pair for script in SCRIPTS for pair in module_attributes(PERFBENCH / script)}
    # the traced run counts LP solves through rom.linprog; the export runs cli.main
    assert {("magicscope.rom", "linprog"), ("magicscope.cli", "main")} <= reads
    for module, name in reads:
        assert hasattr(importlib.import_module(module), name), f"{module} has no {name}"


def test_every_attribute_read_off_a_result_exists():
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    vset = v_representation(MeasurementSet.from_strings(["X", "Y", "Z"]))
    results = {
        "VertexSet": vset,
        "RomResult": reduced_rom(vset, ExpectationVector.of([0.5, 0.0, 0.0])),
        "GroundStateResult": ground_state(build_hamiltonian(SpinChainSpec("tfim", 3, {"g": 1.0}))),
    }
    for kind, names in RESULT_READS.items():
        for name in names:
            assert name in read, f"run.py no longer reads {name}; drop it from RESULT_READS"
            assert hasattr(results[kind], name), f"{kind} has no {name}"
    fields = tuple(f.name for f in dataclasses.fields(SweepRecord))
    assert fields[:len(SWEEP_RECORD_FIELDS)] == SWEEP_RECORD_FIELDS
