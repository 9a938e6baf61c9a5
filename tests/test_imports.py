"""Every module of the package uses each name it imports, and the package
root binds exactly what the benchmark reads from it.

No linter ships with the project, so this walks each module's syntax tree
with the standard library: a name bound by an import and never read
elsewhere in the module is an unused import.  ``__init__.py`` binds names
lazily for the benchmark to read, so it is checked against
``ncbench/child.py`` instead: its map of name to defining module must offer
exactly the ``ncprob.<name>`` attributes the child reads, each submodule the
child reads must be one of those modules, each name must be the object its
module defines, an unknown name must raise ``AttributeError``, and a bare
``import ncprob`` must load no submodule.  The modules use ``from __future__
import annotations``, so no name needs to hide in a quoted annotation, and
one that does counts as unused.
"""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import ncprob

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


def test_the_check_sees_the_attributes_read():
    tree = ast.parse("import p\np.a(p.b.c)\nprint(p.__file__, q.d)\n")
    assert attributes_read(tree, "p") == {"a", "b"}
