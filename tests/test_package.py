"""Package-level checks: every exported name still exists."""

import importlib
import pkgutil

import pytest

import maplink  # its re-exports fail here at import if any is stale

MODULES = sorted(m.name for m in pkgutil.iter_modules(maplink.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"maplink.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
