"""The package imports only the private scipy names listed here, and they exist.

``spinchain`` runs its Lanczos products through
``scipy.sparse._sparsetools.csr_matvec``, below scipy's public sparse API,
so a scipy release that moves or renames it would break every ground
state.  This reads the package's import statements with ``ast``, as
``test_benchmark_imports`` reads the benchmark's, and fails when a private
name is added without being listed here or when a listed one is gone.
"""

import ast
import importlib
from pathlib import Path

import magicscope

PACKAGE = Path(magicscope.__file__).resolve().parent
# (module, name) for every ``from scipy... import name`` with a private part
PRIVATE = {("scipy.sparse._sparsetools", "csr_matvec")}


def private_scipy_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            for alias in node.names:
                if any(part.startswith("_") for part in [*node.module.split("."), alias.name]):
                    found.add((node.module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "scipy" and any(part.startswith("_") for part in parts):
                    found.add((alias.name, None))
    return found


def test_the_package_imports_exactly_these_private_names():
    found = set().union(*(private_scipy_imports(path) for path in PACKAGE.glob("*.py")))
    assert found == PRIVATE


def test_every_listed_private_name_exists():
    for module, name in PRIVATE:
        assert hasattr(importlib.import_module(module), name), f"{module} has no {name}"
