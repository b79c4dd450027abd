"""Every exported name resolves, and the package exports only listed names.

A deleted class can otherwise leave a stale name in a module's ``__all__``
(``from module import *`` then fails) or in the package's name table, which
``overlapifs/__init__.py`` resolves on first access.
"""

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
