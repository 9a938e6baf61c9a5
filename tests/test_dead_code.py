"""Every public function, class and method of the package, and every oracle
of ``tests/nc_oracles.py``, has a caller; in the package, one outside
``tests``, unless it is one of the paper's objects that only tests call.

No linter ships with the project, so this reads the syntax trees with the
standard library.  A public name (one not starting with ``_``) defined at the
top level of a module in ``src/ncprob`` or of ``tests/nc_oracles.py``, or as a
method of such a class, must be referenced outside its own definition
somewhere in ``src``, ``tests`` or ``ncbench``.  A reference is an ``ast.Name``, an ``ast.Attribute`` or an
import alias.  Matching is by name alone, so a reference to any attribute of
the same name counts.  The imports of ``ncprob/__init__.py`` are not
references: exporting a name does not use it.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ncprob"
SOURCES = sorted(
    p for d in ("src", "tests", "ncbench") for p in (ROOT / d).rglob("*.py")
    if p != PACKAGE / "__init__.py"
)

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def public_definitions(tree: ast.Module) -> list[str]:
    """Public top-level functions and classes, and the public methods of those classes."""
    names = []
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, FUNCTIONS) and not item.name.startswith("_")
                ]
    return names


def referenced_names(tree: ast.AST, inside: tuple[str, ...] = ()) -> set[str]:
    """Names referenced in ``tree``, leaving out a reference to a name inside a
    definition of that same name."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:
            name = None
        if name is not None and name not in inside:
            found.add(name)
        scope = inside + (node.name,) if isinstance(node, DEFINITIONS) else inside
        found |= referenced_names(node, scope)
    return found


# The free-product algebra, its cumulant layers and the Kreweras complement:
# the paper's objects, which the CLI does not run and the tests do.
TESTED_PAPER_OBJECTS = {
    "ProductSpace.embed",
    "ProductSpace.multiply",
    "ProductSpace.kappa_base",
    "ProductSpace.kappa_pure_pi",
    "ProductSpace.kappa_elements",
    "kreweras",
}


@cache
def all_references(dirs: tuple[str, ...] = ("src", "tests", "ncbench")) -> frozenset[str]:
    found = set()
    for path in SOURCES:
        if path.relative_to(ROOT).parts[0] in dirs:
            found |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    return frozenset(found)


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.parent == PACKAGE] + [ROOT / "tests" / "nc_oracles.py"],
    ids=lambda p: p.name,
)
def test_public_definitions_are_referenced(path):
    references = all_references()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    dead = [
        name for name in public_definitions(tree)
        if name.rsplit(".", 1)[-1] not in references
    ]
    assert not dead, f"{path.name} defines names nothing references: {dead}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.parent == PACKAGE], ids=lambda p: p.name
)
def test_public_definitions_have_a_caller_outside_tests(path):
    references = all_references(("src", "ncbench"))
    tree = ast.parse(path.read_text(encoding="utf-8"))
    test_only = [
        name for name in public_definitions(tree)
        if name.rsplit(".", 1)[-1] not in references and name not in TESTED_PAPER_OBJECTS
    ]
    assert not test_only, f"{path.name} defines names only tests call: {test_only}"


def test_the_check_sees_a_dead_definition():
    tree = ast.parse(
        "class C:\n"
        "    def used(self): return self.dead_too\n"
        "    def dead(self): return self.dead()\n"
        "    def _private(self): pass\n"
        "def f(): return f() + C().used()\n"
        "def g(): pass\n"
        "from m import h as k\n"
        "k\n"
    )
    assert public_definitions(tree) == ["C", "C.used", "C.dead", "f", "g"]
    references = referenced_names(tree)
    assert {"C", "used", "dead_too", "h", "k"} <= references
    assert not {"dead", "f", "g"} & references
