"""Library invariants raise typed errors: an ``assert`` vanishes under
``python -O``, so no module of the package may use one."""

import ast
from pathlib import Path

import torslat

SOURCES = sorted(Path(torslat.__file__).parent.glob("*.py"))


def _assert_sites(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Name) and node.id == "AssertionError":
            yield node.lineno, "AssertionError"
        elif isinstance(node, ast.Attribute) and node.attr == "AssertionError":
            yield node.lineno, "AssertionError"


def test_no_assert_in_library():
    assert {p.name for p in SOURCES} >= {"silting.py", "posets.py", "oracle.py"}
    sites = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _assert_sites(path)
    ]
    assert not sites, "\n".join(sites)
