"""No module of the package imports a name it never uses, and no function,
class or method, private or public, no attribute stored on `self` and no
annotated class field outlives its last reader in the package.  A method,
a stored attribute or a field is read only as `.name`.

No linter ships with the toolchain, so this parses every module with the
standard-library `ast`.  Package `__init__.py` files are skipped by the import
check: their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "poroplate"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
SOURCES = {p.relative_to(SRC).as_posix(): p.read_text() for p in sorted(SRC.rglob("*.py"))}


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read, with their lines."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_detects_an_unused_import():
    source = "import numpy as np\nfrom os import path, sep\n\nprint(np.pi, sep)\n"
    assert unused_imports(source) == [(2, "path")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def definitions(tree: ast.Module, constants: bool) -> list:
    """(line, name, attribute) of the module-level functions and classes, of
    the methods of module-level classes and, if `constants`, of the
    module-level assignments; `attribute` is set for the methods, which only
    `.name` reads."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name, False))
        elif constants and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.lineno, t.id, False) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            out += [(f.lineno, f.name, True) for f in node.body if isinstance(f, ast.FunctionDef)]
    return out


def private_definitions(tree: ast.Module) -> list:
    """Private functions, classes, constants and methods."""
    return [d for d in definitions(tree, True) if _private(d[1])]


def public_definitions(tree: ast.Module) -> list:
    """Public functions, classes and methods."""
    return [d for d in definitions(tree, False) if not d[1].startswith("_")]


def read_attributes(tree: ast.Module) -> set:
    """Every attribute the module reads."""
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Load)}


def read_names(tree: ast.Module) -> set:
    """Every name the module reads."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unread_names(sources: dict, defined) -> list:
    """(module, line, name) of the `defined(tree)` definitions (line, name,
    attribute) that no module reads: as `.name` if `attribute` is set, as a
    name or as `.name` otherwise."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    attrs = set().union(*(read_attributes(t) for t in trees.values()))
    names = attrs.union(*(read_names(t) for t in trees.values()))
    return sorted((mod, line, name) for mod, tree in trees.items()
                  for line, name, attribute in defined(tree)
                  if name not in (attrs if attribute else names))


def test_detects_an_unread_private_name():
    a = ("_LIMIT = 3\n_SPARE = 4\n\n\ndef _helper():\n    return _LIMIT\n\n\n"
         "class Box:\n    def _used(self):\n        return 1\n\n"
         "    def _dead(self):\n        return self._used()\n")
    b = "from a import _helper\n\nprint(_helper())\n"
    assert unread_names({"a": a, "b": b}, private_definitions) == [
        ("a", 2, "_SPARE"), ("a", 13, "_dead")]


def test_every_private_name_is_read():
    assert unread_names(SOURCES, private_definitions) == []


def test_detects_an_unread_public_name():
    a = ("LIMIT = 3\n\n\ndef helper():\n    return LIMIT\n\n\ndef spare():\n    return 0\n\n\n"
         "class Box:\n    def used(self):\n        return 1\n\n"
         "    def dead(self):\n        return self.used()\n")
    b = "from a import Box, helper\n\nprint(helper(), Box)\n"
    assert unread_names({"a": a, "b": b}, public_definitions) == [
        ("a", 8, "spare"), ("a", 16, "dead")]


def test_every_public_name_is_read():
    # a name read only by tests, the benchmark or an `__init__` re-export counts as unread
    assert unread_names(SOURCES, public_definitions) == []


def test_detects_a_method_read_only_as_a_plain_name():
    # a nested function or a plain name of the same name does not read the method
    a = ("class Grid:\n    def node_id(self, i):\n        return i\n\n"
         "    def size(self):\n        return 4\n\n\n"
         "def build():\n    def node_id(i):\n        return i\n\n"
         "    return node_id(Grid().size())\n\n\nprint(build())\n")
    assert unread_names({"a": a}, public_definitions) == [("a", 2, "node_id")]


def stored_attributes(tree: ast.Module) -> list:
    """(line, name, True) of every `self.<name> = ...` assignment."""
    return [(n.lineno, n.attr, True) for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name)
            and n.value.id == "self"]


def test_detects_an_unread_attribute():
    # a plain name `spare` does not count as reading the attribute
    a = ("class Box:\n    def __init__(self, n):\n        self.n = n\n"
         "        self.spare = 2 * n\n        self.a, self.b = n, n\n\n"
         "    def size(self):\n        return self.n + self.a\n\n\nspare = 3\nprint(spare)\n")
    b = "from a import Box\n\nprint(Box(1).b)\n"
    assert unread_names({"a": a, "b": b}, stored_attributes) == [("a", 4, "spare")]


def test_every_stored_attribute_is_read():
    # an attribute read only by tests or the benchmark counts as unread
    assert unread_names(SOURCES, stored_attributes) == []


def class_fields(tree: ast.Module) -> list:
    """(line, name, True) of every annotated field of a module-level class."""
    return [(f.lineno, f.target.id, True) for node in tree.body if isinstance(node, ast.ClassDef)
            for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]


def test_detects_an_unread_field():
    # a keyword argument or a plain name `c0` does not count as reading the field
    a = ("from dataclasses import dataclass\n\n\n@dataclass\nclass Report:\n"
         "    c0: float\n    ok: bool\n\n\nc0 = 1.0\nr = Report(c0=c0, ok=True)\nprint(r.ok)\n")
    assert unread_names({"a": a}, class_fields) == [("a", 6, "c0")]


def test_every_field_is_read():
    # a field read only by tests or the benchmark counts as unread
    assert unread_names(SOURCES, class_fields) == []
