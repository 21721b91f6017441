"""Source hygiene of the package, read with the standard library's `ast`:
no import goes unused, no module-level private function is left without
a reference in the package, no function or method takes a parameter it
never reads, and no cache is unbounded."""

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


def top_level_functions(tree):
    """Module-level functions and the methods of module-level classes.

    Functions nested in a function are left out: they are callbacks whose
    signatures their callers fix, such as the `keep` callbacks that the
    solver's stacked loop calls with every reading.
    """
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for member in body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield member


def parameter_names(function):
    args = function.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    starred = [arg for arg in (args.vararg, args.kwarg) if arg is not None]
    return [arg.arg for arg in named + starred]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_parameter_is_read(path):
    unread = []
    for function in top_level_functions(parse(path)):
        loaded = {node.id for node in ast.walk(function)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}:{function.lineno} {function.name}({name})"
                   for name in parameter_names(function)
                   if name not in loaded]
    assert unread == []


def unbounded_caches(tree):
    """Lines that use functools.cache or an lru_cache with maxsize None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                yield node.lineno
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            yield node.lineno
        elif isinstance(node, ast.Call):
            callee = node.func
            name = getattr(callee, "attr", getattr(callee, "id", None))
            if name != "lru_cache":
                continue
            sizes = node.args[:1] + [kw.value for kw in node.keywords
                                     if kw.arg == "maxsize"]
            if any(isinstance(size, ast.Constant) and size.value is None
                   for size in sizes):
                yield node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_cache_is_bounded(path):
    # the lattice and band tables are keyed on (grid, ...) and would grow
    # without bound over a long scan of grids, alphas and cutoffs
    unbounded = [f"{path.name}:{line}"
                 for line in unbounded_caches(parse(path))]
    assert unbounded == []
