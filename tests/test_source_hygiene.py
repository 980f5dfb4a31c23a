"""Every name a module of the package imports is used in that module.

An import left behind by a deletion is not an error to Python, so nothing
else notices it. `__init__.py` is exempt, as it imports to re-export, and so
are `__future__` imports.
"""
import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repoints")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_are_found():
    assert "classical.py" in MODULES and "verifier.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_an_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os\nfrom . import a, b as c\nc.f(a)\n"
    assert unused_imports(source) == [(2, "os")]
