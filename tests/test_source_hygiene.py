"""Every name a module of the package imports is used in that module, and
every private function, class or method is read somewhere in the package.

An import or a helper left behind by a deletion is not an error to Python,
so nothing else notices it. `__init__.py` is exempt from the import check, as
it imports to re-export, and so are `__future__` imports.
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each single-underscore module-level function or
    class, or method of a module-level class, that no module of `sources`
    (module name -> source) reads as a name, an attribute or an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined, read = [], set()
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if isinstance(d, defs) and _is_private(d.name):
                    defined.append((module, d.lineno, d.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in read)


def _package_sources() -> dict:
    out = {}
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module)) as fh:
            out[module] = fh.read()
    return out


def test_modules_are_found():
    assert "classical.py" in MODULES and "verifier.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_an_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os\nfrom . import a, b as c\nc.f(a)\n"
    assert unused_imports(source) == [(2, "os")]


def test_every_private_name_is_read():
    assert unread_private_names(_package_sources()) == []


def test_an_unread_private_name_is_reported():
    sources = {
        "a.py": "def _unit():\n    pass\ndef _called():\n    pass\n"
                "class _Box:\n    def _peek(self):\n        pass\n    def _drop(self):\n"
                "        pass\n    def __len__(self):\n        return 0\n",
        "b.py": "from .a import _Box, _called\n_called()\n_Box()._peek()\n",
    }
    assert unread_private_names(sources) == [("a.py", 1, "_unit"), ("a.py", 8, "_drop")]
