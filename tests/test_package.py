"""Package-level checks: every exported name still exists, and no invariant is an `assert`."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import maplink  # its re-exports fail here at import if any is stale

MODULES = sorted(m.name for m in pkgutil.iter_modules(maplink.__path__))
SOURCES = sorted(Path(maplink.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"maplink.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    # `python -O` strips assert statements, so they cannot guard invariants
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []
