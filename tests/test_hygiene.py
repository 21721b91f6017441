"""Source hygiene of the package, read with the standard library's `ast`:
no import goes unused, and no module-level private function is left
without a reference in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "paraburgers"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def referenced_names(tree):
    """Every name the tree loads, and every attribute it reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(tree):
    """(bound name, line) of every import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line} {name}"
              for name, line in imported_names(tree) if name not in used]
    assert unused == []


def test_every_private_function_is_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    referenced = set().union(*(referenced_names(tree)
                               for tree in trees.values()))
    unreferenced = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert unreferenced == []
