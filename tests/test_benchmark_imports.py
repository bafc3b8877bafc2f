"""The benchmark's scripts import only names the package has.

The benchmark's timed runs are not run here, so a rename inside
``magicscope`` could break them while every other test passes.  This
reads the scripts' import statements, and the attributes they read off
the package modules they import (``rom_module.linprog``, ``cli.main``),
with ``ast``.  It also checks the attributes ``run.py`` reads off the
objects the package returns, on small objects of each type, and binds
every call the scripts make to a package name, or an attribute of one,
to that callee's signature.  The one script it runs is ``run.py --trace
1`` on each sweep workload: trace-only code (a ground state without the
sweep's per-point guard, the counted ``linprog`` calls) raises where the
untraced sweep records a failure, and the run exits 1.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from magicscope.fgraph import build_frustration_graph, enumerate_maximal_independent_sets
from magicscope.pauli import MeasurementSet, read_measurement_file
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
    """(module, name, alias) for every ``from magicscope... import name [as alias]`` in script."""
    tree = ast.parse(script.read_text(encoding="utf-8"), filename=str(script))
    return [
        (node.module, alias.name, alias.asname or alias.name)
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


def imported_objects(script):
    """The object that each package import in script binds, by the name it binds."""
    objects = {}
    for module, name, alias in package_imports(script):
        package = importlib.import_module(module)
        # ``from magicscope import cli`` names a submodule, not an attribute
        submodule = f"{module}.{name}"
        objects[alias] = (
            importlib.import_module(submodule)
            if hasattr(package, "__path__") and importlib.util.find_spec(submodule)
            else getattr(package, name)
        )
    return objects


def package_calls(script, objects):
    """(line, callee, positional count, keyword names, callable) for each call in
    script to a dotted name that starts with a key of ``objects``."""
    tree = ast.parse(script.read_text(encoding="utf-8"), filename=str(script))
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.insert(0, func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            continue
        chain.insert(0, func.id)
        for cut in range(len(chain), 0, -1):
            head = ".".join(chain[:cut])
            if head in objects:
                target = objects[head]
                for attr in chain[cut:]:
                    target = getattr(target, attr)
                name = ".".join([head.split(".")[-1], *chain[cut:]])
                keywords = tuple(k.arg for k in node.keywords)
                calls.append((f"{script.name}:{node.lineno}", name, len(node.args), keywords, target))
                break
    return calls


SCRIPTS = ("run.py", "make_reference.py")


def test_every_imported_name_exists():
    # resolving an import the package lacks raises AttributeError, naming it
    objects = [imported_objects(PERFBENCH / script) for script in SCRIPTS]
    assert objects[0]  # run.py imports from the package at its top level


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


def test_every_package_call_binds_to_its_signature():
    names = imported_objects(PERFBENCH / "run.py")
    # make_reference.py calls the package through run's names: run.sweep(...)
    calls = package_calls(PERFBENCH / "run.py", names) + package_calls(
        PERFBENCH / "make_reference.py", {f"run.{alias}": obj for alias, obj in names.items()}
    )
    shapes = {(name, positional, keywords) for _, name, positional, keywords, _ in calls}
    assert {
        ("sweep", 4, ("threads",)),
        ("ground_state", 1, ()),
        ("SweepRecord", 7, ()),
        ("ExpectationVector.of", 1, ()),
        ("cli.main", 1, ()),
    } <= shapes
    for where, name, positional, keywords, target in calls:
        try:
            inspect.signature(target).bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"{where}: {name} with {positional} positional "
                                 f"arguments and keywords {keywords}: {exc}") from None


def test_the_traced_build_enumerates_every_subset():
    # run.py's traced build times the enumeration on the graph it builds
    ms = read_measurement_file(PERFBENCH / "data" / "xxz9_all_terms.txt")
    subsets = list(enumerate_maximal_independent_sets(build_frustration_graph(ms)))
    assert len(subsets) == len(v_representation(ms).starts) == 978


@pytest.mark.parametrize("workload", ["annni10-sweep", "xxz12-window"])
def test_a_traced_sweep_exits_0_with_a_correct_result(workload):
    # one Latin square, about 2 s; the span file goes to the git-ignored perfbench/out/
    argv = [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0", "--trace", "1"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
