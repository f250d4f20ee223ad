"""Public surface: every module imports and every ``__all__`` name
resolves, no module imports another's private name, only
``veclap.eigensolve`` imports ``scipy.linalg``, and in it only ``_call``
reads a LAPACK routine, only ``veclap.lagrange`` reads the edge numbering
``unique_edges``, only ``eigensolve.factorize`` names SuperLU's ``splu``
and ``spilu`` and no module names ARPACK's ``eigsh``, the abstract framework calls no
``numpy.linalg`` decomposition, no module reads the environment, and
importing the CLI does not load ``scipy.special``."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def _private_imports(tree) -> list[str]:
    """The private names that ``tree`` imports from veclap modules, or reads
    from a veclap module it imports whole."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "veclap"):
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append(f"{node.module}.{alias.name}")
                elif not node.module or node.module == "veclap":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names
                           if a.name.split(".")[0] == "veclap")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(Path(veclap.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_no_module_imports_a_private_name_of_another(path):
    # a private name may change with its own module; every other module
    # goes through the public ones
    assert _private_imports(ast.parse(path.read_text())) == []


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree) -> list[int]:
    """Lines where ``tree`` reads the environment through ``os``: an
    ``os.environ``/``os.getenv`` attribute under any name ``os`` is
    imported as, or either name imported from ``os``."""
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names
             if alias.name == "os"}
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id in names):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in _ENVIRONMENT for alias in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(Path(veclap.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_no_module_reads_the_environment(path):
    # every setting is a CLI option or an argument; a variable read inside
    # the package would be a hidden knob on the outputs
    assert _environment_reads(ast.parse(path.read_text())) == []


def test_environment_reads_are_found():
    tree = ast.parse("import os as o\nfrom os import getenv\n"
                     "o.environ.get('X')\nx = o.getenv('Y')\n")
    assert _environment_reads(tree) == [2, 3, 4]


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


def test_only_the_call_helper_reads_a_lapack_routine():
    # veclap.eigensolve._call turns every LAPACK info into a typed error; a
    # kernel that read lapack.<routine> itself would handle its info again
    tree = ast.parse((Path(veclap.__file__).parent / "eigensolve.py").read_text())
    call, = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "_call"]
    inside = {id(node) for node in ast.walk(call)}
    readers = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Name) and node.id == "lapack"
               and id(node) not in inside]
    assert readers == [], f"lapack read outside _call on lines {readers}"
    assert any(isinstance(node, ast.Name) and node.id == "lapack"
               for node in ast.walk(call))
    for node in ast.walk(tree):  # no other name for LAPACK or its routines
        if isinstance(node, ast.ImportFrom):
            assert node.module != "scipy.linalg.lapack", node.lineno
            assert all(a.name != "lapack" or a.asname is None for a in node.names)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("scipy.linalg") for a in node.names)


def _reads_unique_edges(tree) -> bool:
    """Whether ``tree`` imports, names or reads an attribute
    ``unique_edges``."""
    return any(
        (isinstance(node, ast.Name) and node.id == "unique_edges")
        or (isinstance(node, ast.Attribute) and node.attr == "unique_edges")
        or (isinstance(node, ast.ImportFrom)
            and any(alias.name == "unique_edges" for alias in node.names))
        for node in ast.walk(tree))


def test_only_lagrange_reads_the_edge_numbering():
    # the edge numbering of the node lattice has one home: the mesh refines
    # through a degree-2 NodeNumbering, not through unique_edges itself
    readers = sorted(path.stem for path in Path(veclap.__file__).parent.glob("*.py")
                     if _reads_unique_edges(ast.parse(path.read_text())))
    assert readers == ["lagrange"]


def test_edge_numbering_reads_are_found():
    for source in ("from veclap.lagrange import unique_edges",
                   "import veclap.lagrange as lg\nlg.unique_edges(t)",
                   "f = unique_edges"):
        assert _reads_unique_edges(ast.parse(source)), source
    assert not _reads_unique_edges(ast.parse("NodeNumbering(v, t, 2)"))


def _namers(tree, name) -> list[str]:
    """The top-level definitions of ``tree`` that name ``name``, as a bare
    name, an attribute ``x.name`` or an import, one entry per mention;
    ``<module>`` for a mention outside any definition."""
    found = []
    for top in tree.body:
        owner = (top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                 else "<module>")
        for node in ast.walk(top):
            if ((isinstance(node, ast.Name) and node.id == name)
                    or (isinstance(node, ast.Attribute) and node.attr == name)
                    or (isinstance(node, (ast.Import, ast.ImportFrom))
                        and any(a.name.split(".")[-1] == name for a in node.names))):
                found.append(owner)
    return found


def test_factorize_is_the_one_sparse_lu_and_arpack_is_gone():
    # one factorization site (its ordering, pivoting and dtype handling),
    # complete or incomplete, and the eigensolve has one route, LOBPCG
    splu, spilu, eigsh = {}, {}, {}
    for path in sorted(Path(veclap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for found, name in ((splu, "splu"), (spilu, "spilu"), (eigsh, "eigsh")):
            if owners := _namers(tree, name):
                found[path.stem] = owners
    assert splu == {"eigensolve": ["factorize"]}
    assert spilu == {"eigensolve": ["factorize"]}
    assert eigsh == {}


def test_namers_are_found():
    source = ("from scipy.sparse.linalg import splu\n"
              "import scipy.sparse.linalg.eigsh\n"
              "def f(A):\n    return spla.splu(A)\n"
              "class C:\n    def g(self):\n        h = eigsh\n")
    tree = ast.parse(source)
    assert _namers(tree, "splu") == ["<module>", "f"]
    assert _namers(tree, "eigsh") == ["<module>", "C"]
    assert _namers(ast.parse("lu = factorize(A)"), "splu") == []


def test_abstract_framework_calls_no_numpy_linalg_decomposition():
    # its decompositions go through the veclap.eigensolve kernels; only the
    # norm, which is no LAPACK call, is read from numpy.linalg
    tree = ast.parse((Path(veclap.__file__).parent / "abstract_framework.py").read_text())
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module:
            assert not node.module.startswith(("numpy.linalg", "scipy")), node.module
            assert not (node.module == "numpy"
                        and any(a.name == "linalg" for a in node.names))
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("numpy.linalg") for a in node.names)
    assert used <= {"norm"}, used


def test_importing_the_cli_leaves_scipy_special_unloaded():
    src = str(Path(veclap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    probe = "import sys, veclap.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.special')))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"
