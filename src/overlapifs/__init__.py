"""Analysis of one-dimensional self-similar systems with controlled overlaps.

Exact rational validation of the defining conditions, classification of how
many digit codings individual points have (a finite count, countably many,
or a continuum), construction of points with prescribed coding counts, and
spectral solution of the dimension equation for the attractor and for the
subsystem bounding its single-coding points.

Importing the package runs none of its modules. Each one but ``cli`` is
registered in ``sys.modules`` unexecuted and runs on first use: a public name
below loads its module when it is first read (PEP 562).
"""

import importlib.util
import sys

_EXPORTS = {
    "codings": (
        "Cardinality", "PointNotInAttractorError", "ResidualGraph", "SymbolicPoint",
        "UnreachableTargetError", "WitnessVerificationError", "build_residual_graph",
        "classify_cardinality", "classify_many", "enumerate_codings", "evaluate",
        "make_witness", "symbolic_point",
    ),
    "dimension": (
        "CoverViolationError", "DimensionResult", "EmptyGraphError", "EmptyReducedSystemError",
        "GraphDirectedSystem", "Partition", "PartitionInvariantError", "Vertex", "build_graph",
        "build_partition", "reduced_system", "solve_dimension", "spectral_radius", "to_dot",
    ),
    "exact": ("AffineMap", "Interval", "format_rational", "parse_rational"),
    "scc": (),  # no public names, but registered like the rest
    "system": (
        "Condition", "EndCase", "Ifs", "InternalError", "NestedImageError", "OverlapSpec",
        "SearchCapExceeded", "ValidationReport", "Violation", "end_case", "validate",
    ),
    "verify": ("CheckResult", "HarnessResult", "dichotomy_sweep", "run_theorem_harness"),
}
# Each public name and the module that defines it.
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"


def _register(module: str):
    """Put ``module`` in ``sys.modules`` unexecuted; reading any attribute runs it."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    loader = spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    loader.exec_module(lazy)
    return lazy


# ``cli`` is left out, so that ``python -m overlapifs.cli`` finds it unloaded.
globals().update((module, _register(module)) for module in _EXPORTS)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
