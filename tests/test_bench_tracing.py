"""The benchmark's tracer wraps functions by name; every name must still resolve."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_names():
    """(module, attribute) pairs of SPANNED and COUNTED, read without importing the file."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("SPANNED", "COUNTED")
    }
    assert set(tables) == {"SPANNED", "COUNTED"}
    return [(module, attr) for table in tables.values() for module, attr, _ in table]


@pytest.mark.parametrize("module,attr", traced_names())
def test_traced_name_resolves(module, attr):
    target = importlib.import_module(f"overlapifs.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
