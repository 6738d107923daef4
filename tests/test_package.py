"""Package-level checks: every exported name exists, no invariant is an `assert`, no warnings."""

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_emits_no_warnings(path):
    # stages report through flags on their results and `main` reports bad
    # input, so a Python warning would be a second, unordered channel
    nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
    imports = [
        node.lineno
        for node in nodes
        if isinstance(node, ast.Import) and any(a.name == "warnings" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "warnings"
    ]
    uses = [
        node.lineno
        for node in nodes
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "warnings"
    ]
    assert imports + uses == []
