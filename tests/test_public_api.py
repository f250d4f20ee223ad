"""Public surface: every module imports and every ``__all__`` name
resolves, and only ``veclap.eigensolve`` imports ``scipy.linalg``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import veclap

MODULES = ["veclap"] + sorted(f"veclap.{m.name}"
                              for m in pkgutil.iter_modules(veclap.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def _imports_scipy_linalg(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        if any(n == "scipy.linalg" or n.startswith("scipy.linalg.") for n in names):
            return True
    return False


def test_only_eigensolve_imports_scipy_linalg():
    # the dense kernels call LAPACK directly from veclap.eigensolve; a
    # scipy.linalg call elsewhere would bring back its per-call wrapper cost
    importers = sorted(path.stem for path in Path(veclap.__file__).parent.glob("*.py")
                       if _imports_scipy_linalg(ast.parse(path.read_text())))
    assert importers == ["eigensolve"]
