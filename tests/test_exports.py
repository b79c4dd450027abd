"""Every exported name resolves, the package exports only listed names, and
every public function is read by the program or pinned by the benchmark.

A deleted class can otherwise leave a stale name in a module's ``__all__``
(``from module import *`` then fails) or in the package's name table, which
``overlapifs/__init__.py`` resolves on first access.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import overlapifs

INIT = Path(overlapifs.__file__)
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(INIT.parent)]))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"overlapifs.{name}")
    listed = getattr(module, "__all__", [])
    assert len(set(listed)) == len(listed), f"{name}.__all__ repeats a name"
    missing = [attr for attr in listed if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_package_imports_only_listed_names():
    homes = overlapifs._HOME
    assert homes, "overlapifs/__init__.py lists no names from its modules"
    assert overlapifs.__all__ == list(homes)
    unlisted = [
        f"{module}.{name}"
        for name, module in homes.items()
        if name not in getattr(importlib.import_module(f"overlapifs.{module}"), "__all__", ())
    ]
    assert not unlisted, f"listed by the package but missing from __all__: {unlisted}"


def test_package_lists_and_binds_every_name():
    assert set(overlapifs.__all__) <= set(dir(overlapifs))
    namespace: dict = {}
    exec("from overlapifs import *", namespace)
    for name in overlapifs.__all__:
        home = importlib.import_module(f"overlapifs.{overlapifs._HOME[name]}")
        assert namespace[name] is getattr(home, name), name


# Public functions, methods and properties that no program module reads, and
# why each stays: the benchmark's tracer wraps or reads it by name.
UNREAD_BUT_TRACED = [
    "codings.ResidualGraph.adjacency",
    "codings.ResidualGraph.unexpanded",
    "dimension.spectral_radius",
    "exact.AffineMap.invert",
    "scc.strongly_connected_components",
]


def _definitions(tree, prefix=""):
    """(qualified name, bare name) of each function, method and property defined
    at module or class level, nested classes included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node.name
        elif isinstance(node, ast.ClassDef):
            yield from _definitions(node, f"{prefix}{node.name}.")


def test_every_public_function_is_read_or_traced():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in INIT.parent.glob("*.py")}
    read = {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unread = sorted(
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, name in _definitions(tree)
        if not name.startswith("_") and name not in read
    )
    assert unread == UNREAD_BUT_TRACED, "delete what no program module reads, or list why it stays"
    tracing = ast.parse(TRACING.read_text(encoding="utf-8"))
    traced = {node.attr for node in ast.walk(tracing) if isinstance(node, ast.Attribute)}
    traced |= {
        part
        for node in ast.walk(tracing)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for part in node.value.split(".")
    }
    assert [name for name in UNREAD_BUT_TRACED if name.rsplit(".", 1)[1] not in traced] == []
