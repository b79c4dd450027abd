"""End-to-end harnesses tying coding counts and dimensions together.

Each harness runs a battery of checks on one validated system and returns a
structured result with one pass/fail entry per check, suitable for both the
command line and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .codings import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_NODES,
    Cardinality,
    UnreachableTargetError,
    WitnessRequest,
    classify_point,
    evaluate,
    make_witness,
)
from .dimension import DEFAULT_TOL, build_graph, build_partition, reduced_system, solve_dimension
from .system import Ifs, ValidationReport, end_case

__all__ = [
    "CheckResult",
    "HarnessResult",
    "dichotomy_sweep",
    "run_theorem_harness",
]

SWEEP_MAX_PREPERIOD = 4
SWEEP_MAX_PERIOD = 3
SWEEP_CAP = 5000

MEASURE_NOTE = (
    "the continuum-coding set has the same dimension as the whole attractor, and the "
    "attractor's measure at that exponent is positive and finite; both are cited identities "
    "reported as such, not quantities measured here"
)
PER_K_NOTE = (
    "per-k dimension equalities hold in the infinite limit and are exercised here as "
    "coding-count properties, not as dimension measurements"
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class HarnessResult:
    theorem: int
    applicable: bool
    checks: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.applicable and all(c.passed for c in self.checks)


def dichotomy_sweep(
    ifs: Ifs,
    max_preperiod: int = SWEEP_MAX_PREPERIOD,
    max_period: int = SWEEP_MAX_PERIOD,
    cap: int = SWEEP_CAP,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> dict:
    """Classify a dense sample of eventually periodic points.

    Enumerates every word with the given preperiod and period bounds in a
    fixed order, deduplicates by exact value and classifies up to ``cap``
    distinct points. Returns tallies plus any verdicts that break the
    power-of-two dichotomy (a finite count that is not a power of two, or a
    countable verdict).
    """
    digits = range(1, ifs.m + 1)
    seen: set = set()
    tally = {"finite": 0, "countable": 0, "continuum": 0, "unknown": 0}
    finite_counts: set[int] = set()
    violations: list[str] = []
    classified = 0

    preperiods = [
        word for plen in range(max_preperiod + 1) for word in product(digits, repeat=plen)
    ]
    periods = [word for qlen in range(1, max_period + 1) for word in product(digits, repeat=qlen)]
    for pre, per in product(preperiods, periods):
        value = evaluate(ifs, pre, per)
        if value in seen:
            continue
        seen.add(value)
        verdict = classify_point(ifs, value, max_nodes, max_depth)
        tally[verdict.kind] += 1
        classified += 1
        if verdict.kind == "finite":
            assert verdict.count is not None
            finite_counts.add(verdict.count)
            if verdict.count & (verdict.count - 1):
                violations.append(f"w={pre};p={per} -> finite({verdict.count})")
        elif verdict.kind == "countable":
            violations.append(f"w={pre};p={per} -> countable")
        if classified >= cap:
            break
    return {
        "classified": classified,
        "tally": tally,
        "finite_counts": sorted(finite_counts),
        "violations": violations,
    }


def _witness_check(ifs: Ifs, report: ValidationReport, request: WitnessRequest, **limits) -> CheckResult:
    label = request.kind if request.count is None else f"{request.kind}({request.count})"
    try:
        point = make_witness(ifs, report, request, **limits)
    except Exception as exc:  # construction is self-verifying, so report why
        return CheckResult(f"witness {label}", False, str(exc))
    return CheckResult(f"witness {label}", True, f"{point} = value {point.value}")


def _unreachable_check(
    ifs: Ifs, report: ValidationReport, request: WitnessRequest, **limits
) -> CheckResult:
    label = request.kind if request.count is None else f"{request.kind}({request.count})"
    try:
        point = make_witness(ifs, report, request, **limits)
    except UnreachableTargetError as exc:
        return CheckResult(f"unreachable {label}", True, str(exc))
    except Exception as exc:
        return CheckResult(f"unreachable {label}", False, f"unexpected error: {exc}")
    return CheckResult(f"unreachable {label}", False, f"unexpectedly constructed {point}")


def run_theorem_harness(
    ifs: Ifs,
    report: ValidationReport,
    theorem: int,
    finite_upto: int = 6,
    power_upto: int = 4,
    sweep_cap: int = SWEEP_CAP,
    tol: float = DEFAULT_TOL,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> HarnessResult:
    """Run the battery of checks behind one of the three count/dimension claims.

    ``theorem=1`` targets systems where an extreme neighbour pair overlaps
    (every finite count occurs, and countably many codings occur);
    ``theorem=2`` targets systems where both extreme pairs are disjoint
    (only powers of two occur, countable never does); ``theorem=3`` ties the
    continuum-coding set to the attractor dimension on any member.
    """
    if not report.member:
        raise ValueError("harness needs a validated member system")
    limits = {"max_nodes": max_nodes, "max_depth": max_depth}
    case = end_case(ifs, report)
    result = HarnessResult(theorem=theorem, applicable=True)
    m = ifs.m

    if theorem == 1:
        if case.tag != "end-overlap":
            result.applicable = False
            result.checks.append(
                CheckResult("applicability", False, "no extreme neighbour pair overlaps")
            )
            return result
        for k in range(1, finite_upto + 1):
            result.checks.append(_witness_check(ifs, report, WitnessRequest.finite(k), **limits))
        result.checks.append(_witness_check(ifs, report, WitnessRequest.countable(), **limits))
        # A whole family of countable points: push the overlapping end's
        # extreme digit in front of the opposite endpoint's unique word.
        family = []
        ok = True
        detail = ""
        for n in range(1, 5):
            if case.left_overlaps:
                pre, per = (1,) * n, (m,)
            else:
                pre, per = (m,) * n, (1,)
            value = evaluate(ifs, pre, per)
            verdict = classify_point(ifs, value, **limits)
            family.append(value)
            if verdict != Cardinality.countable():
                ok = False
                detail = f"depth-{n} family point {value} classified {verdict}"
                break
        if ok and len(set(family)) != len(family):
            ok, detail = False, "family points collided"
        if ok:
            detail = f"{len(family)} distinct countable family points"
        result.checks.append(CheckResult("countable family", ok, detail))

    elif theorem == 2:
        if case.tag != "no-end-overlap":
            result.applicable = False
            result.checks.append(
                CheckResult("applicability", False, "an extreme neighbour pair overlaps")
            )
            return result
        for s in range(0, power_upto + 1):
            result.checks.append(
                _witness_check(ifs, report, WitnessRequest.finite(2**s), **limits)
            )
        for k in (3, 5, 6):
            result.checks.append(
                _unreachable_check(ifs, report, WitnessRequest.finite(k), **limits)
            )
        result.checks.append(
            _unreachable_check(ifs, report, WitnessRequest.countable(), **limits)
        )
        sweep = dichotomy_sweep(ifs, cap=sweep_cap, max_nodes=max_nodes, max_depth=max_depth)
        ok = not sweep["violations"]
        detail = (
            f"{sweep['classified']} points: {sweep['tally']}, "
            f"finite counts {sweep['finite_counts']}"
        )
        if not ok:
            detail += f"; violations: {sweep['violations'][:5]}"
        result.checks.append(CheckResult("power-of-two dichotomy sweep", ok, detail))

    elif theorem == 3:
        result.checks.append(_witness_check(ifs, report, WitnessRequest.continuum(), **limits))
        part = build_partition(ifs, report)
        gds = build_graph(ifs, part)
        full = solve_dimension(gds, tol)
        reduced = solve_dimension(reduced_system(ifs, part, gds), tol)
        gap_ok = reduced.value + 10 * tol < full.value
        result.checks.append(
            CheckResult(
                "strict dimension gap",
                gap_ok,
                f"single-coding bound {reduced.value:.9f} < attractor {full.value:.9f}",
            )
        )
        result.notes.append(MEASURE_NOTE)
        result.notes.append(PER_K_NOTE)

    else:
        raise ValueError(f"theorem must be 1, 2 or 3, got {theorem}")

    return result
