"""Every name a module of the package imports is used in that module, every
private function, class or method is read somewhere in the package, and so is
every public function and method that `PUBLIC_WITHOUT_READER` does not name.
The modules' relative imports, at the top level or inside a function, form
no cycle.

An import or a helper left behind by a deletion is not an error to Python,
so nothing else notices it. `__init__.py` is exempt from the import check, as
it imports to re-export, and so are `__future__` imports.

Every field of a dataclass is read as an attribute somewhere in the package,
unless `FIELDS_WITHOUT_READER` names it, and so is every `__slots__` entry
of a class.  Every single-underscore name a module assigns at its top level
(`_X = ...`) is read somewhere in the package.

"Read" means by bare name: a method counts as read when any name or attribute
in the package spells its name, whatever the receiver, and a field when any
attribute does. So a method that shares its name with one that is called (say
`apply` beside `QMatrix.apply`) passes with no caller of its own;
`test_a_shared_method_name_hides_an_unread_method` pins that limit.
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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Public functions and methods that no module of the package reads, each with
# the reason it stays.  The benchmark's tracer patches the first two by name.
PUBLIC_WITHOUT_READER = {
    "classical.adjoint_matrix": "the benchmark tracer patches it; the tests' reference for Ad",
    "linalg.mat_mul": "the benchmark tracer patches it; the tests multiply dense matrices",
    "natrep.check_defining_relations": "acceptance check",
    "natrep.check_rtt_compat": "acceptance check",
    "rmatrix.braid_identity_holds": "acceptance check",
    "rmatrix.annihilating_polynomial_holds": "acceptance check",
    "classical.check_involutive_vanishing": "acceptance check",
    "rootdata.admissible_cases": "scripts/dump_records.py reads it",
}


# Dataclass fields that no module of the package reads, each with the reason
# it stays.
FIELDS_WITHOUT_READER = {
    "rmatrix.RMatrixData.R": "acceptance criterion 5 reads it",
    "points.ThetaData.apply": "the tests rebuild theta from it",
    "coideal.CoidealGen.X_cleared": "the tests pin that the accepted X'' is the one decided",
}


def _names_read(trees) -> set:
    """Every name the trees read as a name, an attribute or an import."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def _attributes_read(sources: dict) -> set:
    """Every attribute that a module of `sources` reads (loads)."""
    return {node.attr for source in sources.values() for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _unread_definitions(sources: dict, kinds: tuple, wanted) -> list:
    """(module, line, name) of each module-level definition of one of `kinds`,
    or such a member of a module-level class, whose name passes `wanted` and
    that no module of `sources` (module name -> source) reads as a name, an
    attribute or an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if isinstance(d, kinds) and wanted(d.name):
                    defined.append((module, d.lineno, d.name))
    read = _names_read(trees.values())
    return sorted(d for d in defined if d[2] not in read)


def unread_private_names(sources: dict) -> list:
    """Each single-underscore module-level function or class, or method of a
    module-level class, that no module of `sources` reads."""
    return _unread_definitions(sources, (*_FUNCTIONS, ast.ClassDef), _is_private)


def unread_private_assignments(sources: dict) -> list:
    """(module, line, name) of each single-underscore name that a module of
    `sources` assigns at its top level and that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    assigned = []
    for module, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and _is_private(name.id):
                        assigned.append((module, node.lineno, name.id))
    read = _names_read(trees.values())
    return sorted(a for a in assigned if a[2] not in read)


def unread_slots(sources: dict) -> list:
    """(module, line, "Class.slot") of each `__slots__` entry of a
    module-level class of `sources` that no module reads as an attribute."""
    slots = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            for stmt in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets):
                    names = ast.literal_eval(stmt.value)
                    for name in (names,) if isinstance(names, str) else names:
                        slots.append((module, stmt.lineno, f"{node.name}.{name}"))
    read = _attributes_read(sources)
    return [s for s in slots if s[2].split(".")[1] not in read]


def unread_public_names(sources: dict, allowed: dict) -> list:
    """Each public module-level function, or public method of a module-level
    class, that no module of `sources` reads and that `allowed` does not name
    as "module.name"."""
    return [d for d in _unread_definitions(sources, _FUNCTIONS, lambda n: not n.startswith("_"))
            if f"{d[0].removesuffix('.py')}.{d[2]}" not in allowed]


def _is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        ast.unparse(d).split("(")[0] == "dataclass" for d in node.decorator_list)


def dataclass_fields(sources: dict) -> list:
    """(module, line, "Class.field") of each field of a module-level
    dataclass of `sources`."""
    return [(module, stmt.lineno, f"{node.name}.{stmt.target.id}")
            for module, source in sources.items() for node in ast.parse(source).body
            if _is_dataclass(node)
            for stmt in node.body if isinstance(stmt, ast.AnnAssign)]


def unread_fields(sources: dict, allowed: dict) -> list:
    """Each dataclass field of `dataclass_fields` that no module of `sources`
    reads as an attribute, by name, and that `allowed` does not name as
    "module.Class.field"."""
    read = _attributes_read(sources)
    return [(module, line, name) for module, line, name in dataclass_fields(sources)
            if name.split(".")[1] not in read
            and f"{module.removesuffix('.py')}.{name}" not in allowed]


def _package_sources() -> dict:
    out = {}
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module)) as fh:
            out[module] = fh.read()
    return out


def relative_import_graph(sources: dict) -> dict:
    """module -> the modules of `sources` it imports by a relative import, at
    the top level or inside a function.  `from .a import f` and
    `from . import a` both name module a; `from . import f` for a name that
    is not a module names the package's `__init__`."""
    graph = {}
    for module, source in sources.items():
        edges = graph.setdefault(module.removesuffix(".py"), set())
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module:
                    edges.add(node.module.split(".")[0])
                else:
                    edges.update(a.name if f"{a.name}.py" in sources else "__init__"
                                 for a in node.names)
    return graph


def import_cycle(graph: dict) -> list:
    """One cycle of `graph`, as the modules along it with the first repeated
    at the end, or [] when the graph is acyclic (depth-first search)."""
    done, path = set(), []

    def visit(node):
        path.append(node)
        for succ in sorted(graph.get(node, ())):
            if succ in path:
                return path[path.index(succ):] + [succ]
            if succ not in done:
                cycle = visit(succ)
                if cycle:
                    return cycle
        path.pop()
        done.add(node)
        return []

    for node in sorted(graph):
        cycle = [] if node in done else visit(node)
        if cycle:
            return cycle
    return []


def test_modules_are_found():
    assert "classical.py" in MODULES and "verifier.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_an_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os\nfrom . import a, b as c\nc.f(a)\n"
    assert unused_imports(source) == [(2, "os")]


def test_every_private_assignment_and_slot_is_read():
    sources = _package_sources()
    assert unread_private_assignments(sources) == []
    assert unread_slots(sources) == []


def test_an_unread_private_assignment_or_slot_is_reported():
    sources = {
        "a.py": "_LIMIT = 3\n_UNUSED = object()\n_A, _B = 1, 2\n_C: int = 0\nPUBLIC = 1\n"
                "class Box:\n    __slots__ = ('size', '_kept', 'label')\n"
                "    def __init__(self):\n        self.size, self._kept, self.label = 1, 2, 3\n"
                "class Tag:\n    __slots__ = 'name'\n",
        "b.py": "from .a import Box, _LIMIT\nbox = Box()\nbox.label = box.size + _A\n",
    }
    assert unread_private_assignments(sources) == [
        ("a.py", 2, "_UNUSED"), ("a.py", 3, "_B"), ("a.py", 4, "_C")]
    # a slot only ever assigned (box.label) is not read
    assert unread_slots(sources) == [("a.py", 7, "Box._kept"), ("a.py", 7, "Box.label"),
                                     ("a.py", 11, "Tag.name")]


def test_the_import_graph_is_acyclic():
    graph = relative_import_graph(_package_sources())
    assert "verifier" in graph["cli"] and "points" in graph["coideal"]
    assert import_cycle(graph) == []


def test_an_import_cycle_is_reported():
    # the cycle closes through an import inside a function
    sources = {
        "__init__.py": "from .a import f\n",
        "a.py": "from . import b\ndef f():\n    pass\n",
        "b.py": "def g():\n    from .c import h\n    return h\n",
        "c.py": "import os\nfrom .a import f as h\n",
    }
    graph = relative_import_graph(sources)
    assert graph == {"__init__": {"a"}, "a": {"b"}, "b": {"c"}, "c": {"a"}}
    assert import_cycle(graph) == ["a", "b", "c", "a"]
    sources["c.py"] = "h = 1\n"
    assert import_cycle(relative_import_graph(sources)) == []
    # a name that is not a module is read from the package's __init__
    sources["c.py"] = "from . import f as h\n"
    assert import_cycle(relative_import_graph(sources)) == ["__init__", "a", "b", "c", "__init__"]


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


def test_every_public_function_is_read():
    assert unread_public_names(_package_sources(), PUBLIC_WITHOUT_READER) == []


def test_every_allowed_public_function_exists():
    # an entry whose function was deleted or renamed must leave the list too
    defined = {f"{m.removesuffix('.py')}.{node.name}"
               for m, source in _package_sources().items()
               for node in ast.walk(ast.parse(source)) if isinstance(node, _FUNCTIONS)}
    assert set(PUBLIC_WITHOUT_READER) <= defined


def test_an_unread_public_name_is_reported():
    sources = {
        "a.py": "def used():\n    pass\ndef unused():\n    pass\n"
                "class Box:\n    def peek(self):\n        pass\n    def drop(self):\n"
                "        pass\n    def kept(self):\n        pass\n    def _hidden(self):\n"
                "        pass\n",
        "b.py": "from .a import Box, used\nused()\nBox().peek()\n",
    }
    assert unread_public_names(sources, {"a.kept": "a reason"}) == [
        ("a.py", 3, "unused"), ("a.py", 8, "drop")]


def test_a_shared_method_name_hides_an_unread_method():
    # the check's known blind spot: Box.apply has no caller, but Tray.apply does
    sources = {
        "a.py": "class Box:\n    def apply(self):\n        pass\n"
                "class Tray:\n    def apply(self):\n        pass\n",
        "b.py": "from .a import Tray\nTray().apply()\n",
    }
    assert unread_public_names(sources, {}) == []


def test_every_dataclass_field_is_read():
    assert unread_fields(_package_sources(), FIELDS_WITHOUT_READER) == []


def test_every_allowed_field_exists():
    # an entry whose field was deleted or renamed must leave the list too
    defined = {f"{m.removesuffix('.py')}.{name}"
               for m, _, name in dataclass_fields(_package_sources())}
    assert set(FIELDS_WITHOUT_READER) <= defined


def test_an_unread_field_is_reported():
    sources = {
        "a.py": "from dataclasses import dataclass\n@dataclass(frozen=True)\nclass Box:\n"
                "    size: int\n    label: str\n    kept: int\n    tag = 0\n"
                "class Plain:\n    note: str\n",
        "b.py": "from .a import Box\nbox = Box(1, 'x', 2)\nbox.label = box.size\n",
    }
    assert unread_fields(sources, {"a.Box.kept": "a reason"}) == [("a.py", 5, "Box.label")]
