"""Every exported name resolves, and the package exports only listed names.

A deleted class can otherwise leave a stale name in a module's ``__all__``
(``from module import *`` then fails) or in ``overlapifs/__init__.py``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import overlapifs

INIT = Path(overlapifs.__file__)
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(INIT.parent)]))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"overlapifs.{name}")
    listed = getattr(module, "__all__", [])
    assert len(set(listed)) == len(listed), f"{name}.__all__ repeats a name"
    missing = [attr for attr in listed if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def package_imports():
    """(module, name) for each name ``__init__.py`` imports from a package module."""
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_package_imports_only_listed_names():
    imports = package_imports()
    assert imports, "overlapifs/__init__.py imports nothing from its modules"
    unlisted = [
        f"{module}.{name}"
        for module, name in imports
        if not name.startswith("_")
        and name not in getattr(importlib.import_module(f"overlapifs.{module}"), "__all__", ())
    ]
    assert not unlisted, f"imported by the package but missing from __all__: {unlisted}"
