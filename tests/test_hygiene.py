"""Source hygiene of the package: every exported name resolves, no module
imports a name it never uses, and every private top-level function, class
or constant is used somewhere in the package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import splinecomplex

PACKAGE = Path(splinecomplex.__file__).parent
MODULES = ["__init__", *sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE)]))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # the tracer of perfbench calls getattr on each name of __all__, so a
    # stale entry breaks the benchmark before any library test sees it
    module = splinecomplex if name == "__init__" else importlib.import_module(f"splinecomplex.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:  # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    unused = sorted((line, n) for n, line in imported.items() if n not in used | exported)
    assert not unused, unused


def _top_level_names(tree):
    """Every function, class and assigned name at the top level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (name.id for name in ast.walk(target) if isinstance(name, ast.Name))


def test_no_unreferenced_private_definitions():
    # a private helper or constant left behind when its callers moved away
    # is dead code; an assignment does not count as a use of its own name
    trees = {name: ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")) for name in MODULES}
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
    }
    dead = sorted(
        (name, defined)
        for name, tree in trees.items()
        for defined in _top_level_names(tree)
        if defined.startswith("_") and not defined.startswith("__") and defined not in used
    )
    assert not dead, dead
