"""Every console script that pyproject.toml declares resolves: an install
must not create a command that dies on import."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _unresolved(scripts):
    """Names of the scripts whose "module:attribute" target does not import."""
    out = []
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        try:
            obj = importlib.import_module(module)
            for part in attr.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            out.append(name)
            continue
        if not callable(obj):
            out.append(name)
    return out


def test_declared_scripts_resolve():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    assert _unresolved(scripts) == []


def test_a_missing_target_is_reported():
    scripts = {
        "no-module": "torslat.no_such_module:main",
        "no-attribute": "torslat.oracle:no_such_function",
        "not-callable": "torslat.config:DEFAULTS",
        "found": "torslat.oracle:brute_torsion_classes",
    }
    assert _unresolved(scripts) == ["no-module", "no-attribute", "not-callable"]
