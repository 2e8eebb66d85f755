"""Every private helper of the library is used somewhere in the library.

A helper is a module-level function or class, or a method, whose name
starts with one underscore.  It counts as used when some library module
names it (as a name, an attribute or an import) outside its own body."""

import ast
from collections import Counter
from pathlib import Path

import torslat

SOURCES = sorted(Path(torslat.__file__).parent.glob("*.py"))


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _references(tree):
    """Counter of the names a tree mentions."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _helpers(tree):
    """Private module-level functions and classes, and private methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            if _is_private(node.name):
                yield node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs) and _is_private(member.name):
                        yield member


def _unused_helpers(paths):
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    total = Counter()
    for tree in trees.values():
        total += _references(tree)
    for path, tree in trees.items():
        for node in _helpers(tree):
            if total[node.name] - _references(node)[node.name] <= 0:
                yield path.name, node.lineno, node.name


def test_no_unused_helper_in_library():
    assert {p.name for p in SOURCES} >= {"silting.py", "posets.py", "oracle.py"}
    sites = [
        f"{name}:{line}: {helper} is never used" for name, line, helper in _unused_helpers(SOURCES)
    ]
    assert not sites, "\n".join(sites)


def test_guard_sees_an_unused_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else 0\n"
        "def _imported():\n"
        "    pass\n"
        "class _Box:\n"
        "    def _used(self):\n"
        "        return self._unused\n"
        "    def _unused(self):\n"
        "        pass\n"
        "    def _dead(self):\n"
        "        return self._used()\n"
        "    def __len__(self):\n"
        "        return 0\n"
    )
    (tmp_path / "b.py").write_text("from .a import _imported, _Box\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert list(_unused_helpers(paths)) == [("a.py", 1, "_recursive"), ("a.py", 10, "_dead")]
