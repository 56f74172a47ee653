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


# calls that hide a warning from pytest's filterwarnings = ["error"]
_SILENCERS = {"catch_warnings", "simplefilter", "filterwarnings", "resetwarnings", "errstate", "seterr"}


@pytest.mark.parametrize("name", MODULES)
def test_no_module_silences_a_warning(name):
    # every warning of the package reaches the test suite, where it is an
    # error; a failure it stands for is reported as an exception instead
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    calls = [
        (node.lineno, func.attr if isinstance(func, ast.Attribute) else func.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(func := node.func, (ast.Attribute, ast.Name))
    ]
    assert not [(line, n) for line, n in calls if n in _SILENCERS]


def test_frozen_dataclasses_with_array_fields_compare_by_identity():
    # the __eq__ and __hash__ a frozen dataclass generates compare and hash
    # its fields, which raises on an array; a frozen dataclass with an array
    # field declares eq=False, so it compares and hashes by identity
    frozen, compared = [], []
    for name in MODULES:
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            annotations = [s.annotation for s in node.body if isinstance(s, ast.AnnAssign)]
            arrays = any(isinstance(a, ast.Attribute) and a.attr == "ndarray" for t in annotations for a in ast.walk(t))
            for dec in node.decorator_list:
                if isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "dataclass":
                    keywords = {k.arg: ast.literal_eval(k.value) for k in dec.keywords}
                    if keywords.get("frozen") and arrays:
                        frozen.append(node.name)
                        if keywords.get("eq", True):
                            compared.append((name, node.name))
    assert {"GeometryMap", "KnotRows"} <= set(frozen), frozen
    assert not compared, compared
