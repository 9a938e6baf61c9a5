"""Every module of the package uses each name it imports.

No linter ships with the project, so this walks each module's syntax tree
with the standard library: a name bound by an import and never read
elsewhere in the module is an unused import.  ``__init__.py`` re-exports
by importing, so it is skipped.  The modules use ``from __future__ import
annotations``, so no name needs to hide in a quoted annotation, and one
that does counts as unused.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ncprob"
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
