"""Analysis of one-dimensional self-similar systems with controlled overlaps.

Exact rational validation of the defining conditions, classification of how
many digit codings individual points have (a finite count, countably many,
or a continuum), construction of points with prescribed coding counts, and
spectral solution of the dimension equation for the attractor and for the
subsystem bounding its single-coding points.
"""

from .codings import (
    Cardinality,
    PointNotInAttractorError,
    ResidualGraph,
    SymbolicPoint,
    UnreachableTargetError,
    WitnessRequest,
    WitnessVerificationError,
    admissible_digits,
    build_residual_graph,
    classify_cardinality,
    classify_many,
    classify_point,
    enumerate_codings,
    evaluate,
    make_witness,
    symbolic_point,
)
from .dimension import (
    CoverViolationError,
    DimensionResult,
    EmptyGraphError,
    EmptyReducedSystemError,
    GraphDirectedSystem,
    Partition,
    PartitionInvariantError,
    Vertex,
    build_graph,
    build_partition,
    reduced_system,
    solve_dimension,
    spectral_radius,
    to_dot,
)
from .exact import AffineMap, Interval, format_rational, parse_rational
from .system import (
    Condition,
    EndCase,
    Ifs,
    OverlapIdentityError,
    OverlapSpec,
    SearchCapExceeded,
    ValidationReport,
    Violation,
    end_case,
    overlap_parameters,
    validate,
)
from .verify import CheckResult, HarnessResult, dichotomy_sweep, run_theorem_harness

__version__ = "0.1.0"
