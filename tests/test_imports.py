"""Every module of the package uses each name it imports, imports only
modules of a lower layer, and the package root binds exactly what the
benchmark reads from it.

No linter ships with the project, so this walks each module's syntax tree
with the standard library: a name bound by an import and never read
elsewhere in the module is an unused import.  ``__init__.py`` binds names
lazily for the benchmark to read, so it is checked against
``ncbench/child.py`` instead: its map of name to defining module must offer
exactly the ``ncprob.<name>`` attributes the child reads, each submodule the
child reads must be one of those modules, each name must be the object its
module defines, an unknown name must raise ``AttributeError``, and a bare
``import ncprob`` must load no submodule.  The benchmark's tracer wraps the
scalar methods named in its ``SCALAR_DUNDERS``, so ``ComplexRational`` must
define each of them itself.  The modules use ``from __future__
import annotations``, so no name needs to hide in a quoted annotation, and
one that does counts as unused.

The layers rank the modules from the exception types and the value-type base
(0) up to the CLI (5).  An import of a package module at any depth, inside a
function too, must name a module of lower rank, so the word layer
(``moment_space``) and the cumulant kernels (``cumulant_calculus``) stay side
by side, and neither loads the other.
"""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ncprob
from ncprob.scalar import ComplexRational

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ncprob"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> the line it is imported on."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from x import a, b\nimport c.d\nprint(a, 'b', c.d)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"b"}


RANKS = {
    "errors": 0, "value": 0,
    "scalar": 1, "nc_lattice": 1,
    "cumulant_calculus": 2, "moment_space": 2,
    "free_product": 3,
    "verification": 4,
    "cli": 5,
}


def package_imports(tree: ast.Module, package: str = "ncprob") -> set[str]:
    """Every module of ``package`` an import anywhere in the tree names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith(package + ".")
            )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module != package and not module.startswith(package + "."):
                    continue
                module = module[len(package) + 1 :]
            if module:
                names.add(module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_every_module_has_a_rank():
    assert set(RANKS) == {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_lower_layers(path):
    rank = RANKS[path.stem]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    upward = sorted(
        f"{name} (rank {RANKS.get(name, 'none')})"
        for name in package_imports(tree)
        if RANKS.get(name, rank) >= rank
    )
    assert not upward, f"{path.name} (rank {rank}) imports {upward}"


def test_the_check_sees_every_package_import():
    tree = ast.parse(
        "import os, ncprob.a\nfrom ncprob.b.c import x\nfrom ncprob import d\n"
        "from . import e as ee, f\nfrom .g import y\nfrom typing import z\n"
        "def h():\n    from .i import w\n"
    )
    assert package_imports(tree) == {"a", "b", "d", "e", "f", "g", "i"}


def attributes_read(tree: ast.Module, package: str) -> set[str]:
    """Every ``<package>.<name>`` read in the tree, leaving out dunders."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == package
        and not node.attr.startswith("__")
    }


def test_package_root_binds_what_the_benchmark_reads():
    child = ast.parse((ROOT / "ncbench" / "child.py").read_text(encoding="utf-8"))
    read = attributes_read(child, "ncprob")
    submodules = {name for name in read if (PACKAGE / f"{name}.py").is_file()}
    # The root offers the names the child reads, and loading their modules
    # binds the submodules the child reads.
    assert set(ncprob._LAZY) == read - submodules
    assert submodules <= set(ncprob._LAZY.values())
    for name, module in ncprob._LAZY.items():
        assert getattr(ncprob, name) is getattr(import_module(f"ncprob.{module}"), name)
    with pytest.raises(AttributeError, match="has no attribute 'Partition'"):
        ncprob.Partition
    code = "import sys, ncprob; print(sorted(m for m in sys.modules if 'ncprob' in m))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    assert (proc.returncode, proc.stdout) == (0, "['ncprob']\n")


def test_the_scalar_type_defines_what_the_benchmark_tracer_wraps():
    # The tracer wraps each name with getattr on the class, so a method that
    # nothing calls must still stay, or every traced run fails to start.
    tracer = ast.parse((ROOT / "ncbench" / "tracer.py").read_text(encoding="utf-8"))
    wrapped = [
        ast.literal_eval(node.value) for node in tracer.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "SCALAR_DUNDERS" for t in node.targets)
    ]
    assert len(wrapped) == 1 and wrapped[0]
    assert set(wrapped[0]) <= set(vars(ComplexRational))


def test_the_check_sees_the_attributes_read():
    tree = ast.parse("import p\np.a(p.b.c)\nprint(p.__file__, q.d)\n")
    assert attributes_read(tree, "p") == {"a", "b"}
