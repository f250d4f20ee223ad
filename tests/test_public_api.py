"""Public surface: every module imports and every ``__all__`` name resolves."""

import importlib
import pkgutil

import pytest

import veclap

MODULES = ["veclap"] + sorted(f"veclap.{m.name}"
                              for m in pkgutil.iter_modules(veclap.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
