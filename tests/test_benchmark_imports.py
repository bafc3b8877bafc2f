"""The benchmark's scripts import only names the package has.

Tier-1 never runs ``perfbench``, so a rename inside ``magicscope`` could
break the benchmark while every other test passes.  This reads the
scripts' import statements with ``ast`` and runs none of them.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def package_imports(script):
    """(module, name) for every ``from magicscope... import name`` in script."""
    tree = ast.parse(script.read_text(encoding="utf-8"), filename=str(script))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "magicscope"
        for alias in node.names
    ]


def test_every_imported_name_exists():
    imports = [
        pair for script in ("run.py", "make_reference.py") for pair in package_imports(PERFBENCH / script)
    ]
    assert imports  # run.py imports from the package at its top level
    for module, name in imports:
        package = importlib.import_module(module)
        # ``from magicscope import cli`` names a submodule, not an attribute
        submodule = hasattr(package, "__path__") and importlib.util.find_spec(f"{module}.{name}")
        assert hasattr(package, name) or submodule, f"{module} has no {name}"
