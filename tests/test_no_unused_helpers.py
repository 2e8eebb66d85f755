"""Every private helper of the library is used somewhere in the library,
and so is every public entry point of the linear-algebra kernel.

A helper is a module-level function or class, or a method, whose name
starts with one underscore.  A definition counts as used when some
library module names it outside its own body: a module-level one as a
name, an attribute or an import, a method as an attribute (so a local
variable of the same name does not count)."""

import ast
from collections import Counter
from pathlib import Path

import torslat

SOURCES = sorted(Path(torslat.__file__).parent.glob("*.py"))


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _is_public(name):
    return not name.startswith("_")


def _references(tree, attributes_only=False):
    """Counter of the names a tree mentions."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _helpers(tree, wanted=_is_private):
    """(definition, is a method) for the module-level functions and
    classes, and methods, whose names are wanted: by default the private
    ones."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            if wanted(node.name):
                yield node, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs) and wanted(member.name):
                        yield member, True


def _unused_helpers(paths, wanted=_is_private):
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    total = {False: Counter(), True: Counter()}
    for tree in trees.values():
        for method in total:
            total[method] += _references(tree, method)
    for path, tree in trees.items():
        for node, method in _helpers(tree, wanted):
            if total[method][node.name] - _references(node, method)[node.name] <= 0:
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


# linalg entry points a library caller may lack: the benchmark's linalg.modp
# span names modp_solve, so it stays until that span is renamed
KERNEL_UNCALLED = {"modp_solve"}


def test_every_kernel_entry_point_has_a_library_caller():
    sites = [
        f"{name}:{line}: {entry} has no caller in the library"
        for name, line, entry in _unused_helpers(SOURCES, _is_public)
        if name == "linalg.py" and entry not in KERNEL_UNCALLED
    ]
    assert not sites, "\n".join(sites)


def test_guard_sees_an_uncalled_public_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Kernel:\n"
        "    def insert(self):\n"
        "        return 1\n"
        "    def contains(self):\n"
        "        return self.contains\n"
    )
    (tmp_path / "b.py").write_text("from .a import Kernel\nKernel().insert()\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert list(_unused_helpers(paths, _is_public)) == [("a.py", 4, "contains")]
