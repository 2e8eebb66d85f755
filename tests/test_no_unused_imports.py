"""Every name a library module imports is used in that module.  Package
``__init__`` files, which re-export, and ``from __future__`` imports are
exempt."""

import ast
from pathlib import Path

import torslat

SOURCES = sorted(
    p for p in Path(torslat.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for name, line in sorted(imported.items(), key=lambda item: item[1]):
        if name not in used:
            yield line, name


def test_no_unused_import_in_library():
    assert {p.name for p in SOURCES} >= {"silting.py", "posets.py", "oracle.py"}
    sites = [
        f"{path.name}:{line}: {name} imported but unused"
        for path in SOURCES
        for line, name in _unused_imports(path)
    ]
    assert not sites, "\n".join(sites)


def test_guard_sees_an_unused_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as parse\n"
        "print(os.sep, parse)\n"
    )
    assert list(_unused_imports(path)) == [(3, "dumps")]
