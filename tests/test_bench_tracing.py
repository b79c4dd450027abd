"""The benchmark's tracer wraps functions by name; every name must still resolve."""

import ast
import importlib
import os
import subprocess
import sys
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


def test_install_after_worker_start_records_spans(data_dir):
    # The benchmark's worker imports the package, loads and validates its systems,
    # and only then installs the tracer, in a fresh interpreter; do the same.
    code = f"""
import sys
sys.path.insert(0, {str(TRACING.parent)!r})
import overlapifs as ov
from overlapifs.cli import parse_ifs_file
from tracing import Tracer
with open({str(data_dir / "quad.ifs")!r}, encoding="utf-8") as fh:
    ifs = ov.Ifs.from_maps(parse_ifs_file(fh.read()).maps)
assert ov.validate(ifs).member
tracer = Tracer()
tracer.install()
ov.build_residual_graph(ifs, ov.evaluate(ifs, (2,), (4,)))
print(tracer.calls["codings.graph"])
"""
    src = str(TRACING.parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1"]
