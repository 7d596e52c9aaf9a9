"""No module of the package imports a name it never uses, and no private
helper outlives its last reader.

No linter ships with the toolchain, so this parses every module with the
standard-library `ast`.  Package `__init__.py` files are skipped by the import
check: their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "poroplate"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.rglob("*.py"))


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


def private_definitions(tree: ast.Module) -> list:
    """(line, name) of the module-level private functions, classes and constants
    and of the private methods of module-level classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            out += [(f.lineno, f.name) for f in node.body if isinstance(f, ast.FunctionDef)]
    return [(line, name) for line, name in out if _private(name)]


def read_names(tree: ast.Module) -> set:
    """Every name and attribute the module reads."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
               and isinstance(n.ctx, ast.Load)})


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of the private definitions no module reads."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set().union(*(read_names(t) for t in trees.values()))
    return sorted((mod, line, name) for mod, tree in trees.items()
                  for line, name in private_definitions(tree) if name not in read)


def test_detects_an_unread_private_name():
    a = ("_LIMIT = 3\n_SPARE = 4\n\n\ndef _helper():\n    return _LIMIT\n\n\n"
         "class Box:\n    def _used(self):\n        return 1\n\n"
         "    def _dead(self):\n        return self._used()\n")
    b = "from a import _helper\n\nprint(_helper())\n"
    assert unread_private_names({"a": a, "b": b}) == [("a", 2, "_SPARE"), ("a", 13, "_dead")]


def test_every_private_name_is_read():
    sources = {p.relative_to(SRC).as_posix(): p.read_text() for p in ALL_MODULES}
    assert unread_private_names(sources) == []
