"""End-to-end harnesses tying coding counts and dimensions together.

Each harness runs a battery of checks on one validated system and returns a
structured result with one pass/fail entry per check, suitable for both the
command line and the test suite.
"""

from __future__ import annotations

from math import gcd

from .codings import (
    Cardinality,
    UnreachableTargetError,
    _classify,
    _limit_hint,
    _Residuals,
    check_limits,
    classify_many,
    evaluate,
    make_witness,
)
from .dimension import (
    check_tol,
    build_graph,
    build_partition,
    reduced_system,
    solve_dimension,
)
from .exact import _Value
from .system import (
    DEFAULT_MAX_DEPTH, DEFAULT_MAX_NODES, DEFAULT_TOL, Ifs, ValidationReport, compose_triples,
)

__all__ = [
    "CheckResult",
    "HarnessResult",
    "dichotomy_sweep",
    "run_theorem_harness",
]

SWEEP_MAX_PREPERIOD = 4
SWEEP_MAX_PERIOD = 3
SWEEP_CAP = 5000
# Each theorem's witness targets in report order, with whether the target is unreachable.
BATTERY = {
    1: [*((Cardinality.finite(k), False) for k in range(1, 7)), (Cardinality.countable(), False)],
    2: [*((Cardinality.finite(k), False) for k in (1, 2, 4, 8, 16)),
        *((Cardinality.finite(k), True) for k in (3, 5, 6)), (Cardinality.countable(), True)],
    3: [(Cardinality.continuum(), False)],
}

MEASURE_NOTE = (
    "the continuum-coding set has the same dimension as the whole attractor, and the "
    "attractor's measure at that exponent is positive and finite; both are cited identities "
    "reported as such, not quantities measured here"
)
PER_K_NOTE = (
    "per-k dimension equalities hold in the infinite limit and are exercised here as "
    "coding-count properties, not as dimension measurements"
)


class CheckResult(_Value):
    name: str
    passed: bool
    detail: str = ""


class HarnessResult(_Value):
    theorem: int
    applicable: bool
    checks: list[CheckResult]
    notes: list[str]

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

    Takes the first word of each distinct value, in a fixed order of the words
    within the bounds, up to ``cap`` (>= 0) points, skipping words whose value an
    earlier word has: a period u^k (k >= 2) has period u's, and a preperiod ending
    in the period's last digit p_k has that of the preperiod one shorter with
    period p_k p_1 .. p_(k-1). A word's map (a, b, c), x -> (a x + b) / c, is ``compose_triples``
    of the word one digit shorter's and one of ``Ifs.integer_maps``; its value, the
    preperiod's map at the period's fixed point, goes as a reduced integer pair
    straight into one residual table, with no Fraction built. Returns tallies of
    the verdicts, the limits behind unknown ones, and any that break the
    power-of-two dichotomy (a finite count not a power of two, or countable).
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    levels = [[((), (1, 0, 1))]]  # the words of each length with their maps, from the identity
    for _ in range(max(max_preperiod, max_period)):
        levels.append([
            (w + (d,), compose_triples(f, g))
            for w, f in levels[-1]
            for d, g in enumerate(ifs.integer_maps, 1)
        ])
    heads = [word for n in range(max_preperiod + 1) for word in levels[n]]
    # primitive periods with fixed point b / (c - a); after[d]: those not ending in d (d=0: all)
    tails = [(per, b, c - a) for n in range(1, max_period + 1) for per, (a, b, c) in levels[n]
             if all(per[k:] + per[:k] != per for k in range(1, n))]
    after = [[t for t in tails if t[0][-1] != d] for d in range(ifs.m + 1)]
    res = _Residuals(ifs, (), max_nodes, max_depth)
    words: list[tuple] = []  # the first word of each root id
    pairs = ((pre, abc, t) for pre, abc in heads for t in after[pre[-1] if pre else 0])
    for pre, (a, b, c), (per, n, d) in pairs:
        if len(words) >= cap:
            break
        num, den = a * n + b * d, c * d
        g = gcd(num, den)
        if res.root((num // g, den // g)) == len(words):
            words.append((pre, per))

    tally = {"finite": 0, "countable": 0, "continuum": 0, "unknown": 0}
    finite_counts: set[int] = set()
    violations: list[str] = []
    verdicts = _classify(res)
    for (pre, per), verdict in zip(words, verdicts):
        tally[verdict.kind] += 1
        if verdict.kind == "finite":
            finite_counts.add(verdict.count)
            if verdict.count & (verdict.count - 1):
                violations.append(f"w={pre};p={per} -> finite({verdict.count})")
        elif verdict.kind == "countable":
            violations.append(f"w={pre};p={per} -> countable")
    limits = {v.limit for v in verdicts if v.kind == "unknown"} if tally["unknown"] else ()
    return {
        "classified": len(words),
        "tally": tally,
        "finite_counts": sorted(finite_counts),
        "violations": violations,
        "limits": sorted(limits),
    }


def _witness_check(
    ifs: Ifs, report: ValidationReport, target: Cardinality, unreachable: bool, limits: dict
) -> CheckResult:
    """Construct the target's witness, or expect UnreachableTargetError when ``unreachable``."""
    label = target.kind if target.count is None else f"{target.kind}({target.count})"
    name = f"{'unreachable' if unreachable else 'witness'} {label}"
    try:
        point = make_witness(ifs, report, target, **limits)
    except UnreachableTargetError as exc:
        return CheckResult(name, unreachable, str(exc))
    except Exception as exc:  # construction is self-verifying, so report why
        return CheckResult(name, False, f"unexpected error: {exc}" if unreachable else str(exc))
    if unreachable:
        return CheckResult(name, False, f"unexpectedly constructed {point}")
    return CheckResult(name, True, f"{point} = value {point.value}")


def run_theorem_harness(
    ifs: Ifs,
    report: ValidationReport,
    theorem: int,
    tol: float = DEFAULT_TOL,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> HarnessResult:
    """Run the battery of checks behind one of the three count/dimension claims.

    ``theorem=1`` needs the report's ``left_overlaps`` or ``right_overlaps``
    (every finite count occurs, and countably many codings occur);
    ``theorem=2`` needs neither (only powers of two occur, countable never
    does); ``theorem=3`` ties the continuum-coding set to the attractor
    dimension on any member. The theorem's ``BATTERY`` of witnesses runs
    first, in order, then its own check: the countable family, the
    dichotomy sweep at ``dichotomy_sweep``'s defaults, or the dimension gap.
    """
    if theorem not in BATTERY:
        raise ValueError(f"theorem must be 1, 2 or 3, got {theorem}")
    check_tol(tol)
    check_limits(max_nodes, max_depth)
    if not report.member:
        raise ValueError("harness needs a validated member system")
    if theorem != 3 and (report.left_overlaps or report.right_overlaps) != (theorem == 1):
        which = "no extreme neighbour pair" if theorem == 1 else "an extreme neighbour pair"
        checks = [CheckResult("applicability", False, f"{which} overlaps")]
        return HarnessResult(theorem, False, checks, [])
    limits = {"max_nodes": max_nodes, "max_depth": max_depth}
    checks = [_witness_check(ifs, report, t, unreachable, limits) for t, unreachable in BATTERY[theorem]]
    notes: list[str] = []

    if theorem == 1:
        # A whole family of countable points: push the overlapping end's
        # extreme digit in front of the opposite endpoint's unique word.
        pre, per = ((1,), (ifs.m,)) if report.left_overlaps else ((ifs.m,), (1,))
        family = [evaluate(ifs, pre * n, per) for n in range(1, 5)]
        verdicts = classify_many(ifs, family, **limits)
        n = next((n for n, v in enumerate(verdicts) if v != Cardinality.countable()), None)
        if n is not None:
            ok, detail = False, f"depth-{n + 1} family point {family[n]} classified {verdicts[n]}"
        elif len(set(family)) != len(family):
            ok, detail = False, "family points collided"
        else:
            ok, detail = True, f"{len(family)} distinct countable family points"
        checks.append(CheckResult("countable family", ok, detail))

    elif theorem == 2:
        sweep = dichotomy_sweep(ifs, max_nodes=max_nodes, max_depth=max_depth)
        ok = not sweep["violations"] and not sweep["limits"]
        detail = (
            f"{sweep['classified']} points: {sweep['tally']}, "
            f"finite counts {sweep['finite_counts']}"
        )
        if sweep["limits"]:
            hits = " and ".join(_limit_hint(limit, max_nodes, max_depth) for limit in sweep["limits"])
            detail += f"; {sweep['tally']['unknown']} points undecided: they {hits}"
        if sweep["violations"]:
            detail += f"; violations: {sweep['violations'][:5]}"
        checks.append(CheckResult("power-of-two dichotomy sweep", ok, detail))

    else:
        part = build_partition(ifs, report)
        gds = build_graph(ifs, part)
        full = solve_dimension(gds, tol)
        reduced = solve_dimension(reduced_system(ifs, part, gds), tol)
        gap = reduced.bracket[1] < full.bracket[0]  # proved brackets, exact
        relation = "<" if gap else "not proved below"
        detail = f"single-coding bound {reduced.value:.9f} {relation} attractor {full.value:.9f}"
        checks.append(CheckResult("strict dimension gap", gap, detail))
        notes += [MEASURE_NOTE, PER_K_NOTE]

    return HarnessResult(theorem, True, checks, notes)
