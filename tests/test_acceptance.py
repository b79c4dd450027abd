"""Acceptance checklist: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines
as they print). Every tolerance and runtime bound is pinned here.
"""

import math
import time
from fractions import Fraction as F

import numpy

from conftest import contains, member_instances, oracle_classify, quad_maps, strongly_connected
from overlapifs import (
    Cardinality,
    Ifs,
    build_graph,
    build_partition,
    build_residual_graph,
    classify_cardinality,
    enumerate_codings,
    evaluate,
    make_witness,
    reduced_system,
    solve_dimension,
    validate,
)
from overlapifs.verify import run_theorem_harness
from test_dimension import NOEND_MATRIX, QUAD_MATRIX, QUAD_REDUCED, quad_radius_oracle


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_1_validator():
    with Timer() as t:
        ifs = Ifs.from_maps(quad_maps())
        rep = validate(ifs)
    ok = (
        rep.member
        and [(s.index, s.u, s.v) for s in rep.overlaps] == [(1, 1, 1), (3, 1, 1)]
        and rep.disjoint_pairs == (2,)
        and t.elapsed < 0.1
    )
    report(
        "criterion 1 (validator)",
        ok,
        f"overlaps {[(s.index, s.u, s.v) for s in rep.overlaps]}, "
        f"disjoint {rep.disjoint_pairs}, {t.elapsed * 1000:.1f} ms",
    )


def test_criterion_2_partition(quad, quad_report):
    with Timer() as t:
        part = build_partition(quad, quad_report)
    expected = (F(0), F(4, 25), F(1, 5), F(9, 25), F(16, 25), F(4, 5), F(21, 25), F(1))
    ok = (
        part.points == expected
        and part.gamma == 8 == 2 * 4 + 1 + 1 - 2
        and len(part.cells) == 6
        and t.elapsed < 0.1
    )
    report(
        "criterion 2 (partition)",
        ok,
        f"gamma={part.gamma}, admissible={len(part.cells)}, {t.elapsed * 1000:.1f} ms",
    )


def test_criterion_3_matrices(quad, quad_report):
    with Timer() as t:
        part = build_partition(quad, quad_report)
        gds = build_graph(quad, part)
        red = reduced_system(quad, part, gds)
    ok = gds.counts == QUAD_MATRIX and red.counts == QUAD_REDUCED and t.elapsed < 0.1
    report(
        "criterion 3 (matrices)",
        ok,
        f"full {gds.size}x{gds.size} and reduced {red.size}x{red.size} match entry-for-entry, "
        f"{t.elapsed * 1000:.1f} ms",
    )


def test_criterion_4_dimensions(quad, quad_report):
    with Timer() as t:
        part = build_partition(quad, quad_report)
        gds = build_graph(quad, part)
        full = solve_dimension(gds)
        red = solve_dimension(reduced_system(quad, part, gds))
    u1_expected = math.log(3) / math.log(5)
    e_expected = math.log(quad_radius_oracle()) / math.log(5)
    ok = (
        abs(red.value - u1_expected) <= 1e-6
        and abs(full.value - e_expected) <= 1e-6
        and red.value < full.value
        and t.elapsed < 1.0
    )
    report(
        "criterion 4 (dimensions)",
        ok,
        f"dim U1={red.value:.9f} (log3/log5={u1_expected:.9f}), "
        f"dim E={full.value:.9f} (oracle {e_expected:.9f}), strict gap, "
        f"{t.elapsed * 1000:.0f} ms",
    )


def test_criterion_5a_classifications(quad):
    with Timer() as t:
        cases = {
            ((), (4,)): ("finite", 1),
            ((1,), (4,)): ("countable", None),
            ((), (1, 4)): ("continuum", None),
            ((1, 4, 2), (4,)): ("finite", 2),
        }
        problems = []
        for (pre, per), expected in cases.items():
            x = evaluate(quad, pre, per)
            graph = build_residual_graph(quad, x)
            verdict = classify_cardinality(graph)
            if (verdict.kind, verdict.count) != expected:
                problems.append(f"w={pre};p={per} -> {verdict}, wanted {expected}")
            if oracle_classify(graph, depth=60) != expected:
                problems.append(f"oracle disagrees at w={pre};p={per}")
    ok = not problems and t.elapsed < 1.0
    report(
        "criterion 5a (classified verdicts, depth-60 oracle)",
        ok,
        "; ".join(problems) if problems else f"4 points, {t.elapsed * 1000:.0f} ms",
    )


def test_criterion_5b_prefixes_as_pinned(quad):
    """Depth-3 prefixes of the countable point x = 1/5, pinned by hand reckoning.

    With the quad maps f2(1/5) = 1/25 + 4/25 = 1/5, so 1/5 is the fixed point
    of f2; f4 fixes 1 and f1(1) = 1/5; and f1∘f4 = f2∘f1 = x/25 + 4/25 is the
    overlap identity of pair (1,2). Since f3 maps into [16/25, 21/25], 4^∞ is
    the only coding of 1. The codings of 1/5 are therefore exactly 2^n 1 4^∞
    for n ≥ 0 together with 2^∞, and their depth-3 prefixes are 144, 214, 221
    and 222. The original checklist's set {144, 214, 221} left out 222, so
    the pin follows the reckoning, not the checklist.
    """
    pinned = [(1, 4, 4), (2, 1, 4), (2, 2, 1), (2, 2, 2)]
    actual = enumerate_codings(quad, F(1, 5), 3)
    report(
        "criterion 5b (depth-3 prefixes exactly as pinned)",
        actual == pinned,
        f"pinned {pinned}, enumeration returns {actual}",
    )


def test_criterion_6_theorem_1_harness(quad, quad_report):
    with Timer() as t:
        result = run_theorem_harness(quad, quad_report, 1, finite_upto=6)
    failures = [c.name for c in result.checks if not c.passed]
    ok = result.passed and not failures and t.elapsed < 5.0
    report(
        "criterion 6 (theorem-1 harness)",
        ok,
        f"{len(result.checks)} checks, failures={failures}, {t.elapsed:.2f} s",
    )


def test_criterion_7_theorem_2_harness(noend, noend_report):
    with Timer() as t:
        result = run_theorem_harness(noend, noend_report, 2, power_upto=4, sweep_cap=5000)
    failures = [c.name for c in result.checks if not c.passed]
    sweep = next(c for c in result.checks if "sweep" in c.name)
    ok = result.passed and not failures and t.elapsed < 30.0
    report(
        "criterion 7 (theorem-2 harness)",
        ok,
        f"failures={failures}; {sweep.detail}; {t.elapsed:.2f} s",
    )


def test_criterion_8_property_suites(quad, quad_report, noend, noend_report):
    problems = []
    with Timer() as t:
        # round-trip membership of enumerated prefixes
        for ifs, xs in (
            (quad, (F(1, 5), F(1, 6), F(109, 625), F(1))),
            (noend, (F(1, 5), F(23, 48), F(117, 250))),
        ):
            for x in xs:
                for word in enumerate_codings(ifs, x, 5):
                    if not contains(ifs.compose_word(word).apply_interval(ifs.hull), x):
                        problems.append(f"prefix {word} loses {x}")

        # forced prefixes on 100 sampled overlap points across both fixtures
        sampled = 0
        tails = []
        for d1 in range(1, 5):
            for d2 in range(1, 5):
                tails.append(((d1,), (d2,)))
                tails.append(((d1, d2), (4,)))
                tails.append(((d1, d2), (1,)))
        for ifs, rep in ((quad, quad_report), (noend, noend_report)):
            for spec in rep.overlaps:
                left = (spec.index,) + (ifs.m,) * (spec.u - 1)
                right = (spec.index + 1,) + (1,) * (spec.v - 1)
                depth = max(spec.u, spec.v)
                for pre, per in tails:
                    x = spec.composed(evaluate(ifs, pre, per))
                    words = enumerate_codings(ifs, x, depth)
                    if not words:
                        problems.append(f"no codings at {x}")
                    for w in words:
                        if w[: len(left)] != left and w[: len(right)] != right:
                            problems.append(f"prefix {w} escapes forcing at {x}")
                    sampled += 1
        if sampled < 100:
            problems.append(f"only {sampled} overlap points sampled")

        # composed-map coefficient identity for every discovered overlap
        for ifs, rep in ((quad, quad_report), (noend, noend_report)):
            for spec in rep.overlaps:
                lhs = ifs.compose_word((spec.index,) + (ifs.m,) * spec.u)
                rhs = ifs.compose_word((spec.index + 1,) + (1,) * spec.v)
                if lhs != rhs or lhs != spec.composed:
                    problems.append(f"coefficient identity fails at pair {spec.index}")

        # strong connectivity on the fixtures plus 25 randomized members
        systems = [(quad, quad_report), (noend, noend_report)]
        systems += [(ifs, validate(ifs)) for ifs, _ in member_instances(seed=1234, count=25)]
        for ifs, rep in systems:
            if not rep.member:
                problems.append("random instance failed validation")
                continue
            gds = build_graph(ifs, build_partition(ifs, rep))
            if not strongly_connected(gds):
                problems.append("graph not strongly connected")

        # closed form log(rho) / -log(ratio) vs bisection on the equal-ratio fixtures
        for ifs, rep in ((quad, quad_report), (noend, noend_report)):
            gds = build_graph(ifs, build_partition(ifs, rep))
            rho = max(abs(numpy.linalg.eigvals(numpy.array(gds.counts, dtype=float))))
            closed = math.log(rho) / -math.log(gds.vertices[0].ratio)
            bisected = solve_dimension(gds)
            if abs(closed - bisected.value) > 1e-9:
                problems.append(
                    f"closed form {closed} vs bisection {bisected.value}"
                )
    ok = not problems and t.elapsed < 60.0
    report(
        "criterion 8 (property suites)",
        ok,
        "; ".join(problems[:4]) if problems else
        f"{sampled} forced-prefix points, 27 connectivity checks, {t.elapsed:.2f} s",
    )


def test_criterion_9_theorem_level_reporting(quad, quad_report):
    with Timer() as t:
        result = run_theorem_harness(quad, quad_report, 3)
        witness = make_witness(quad, quad_report, Cardinality.continuum())
    has_notes = any("not quantities measured" in note for note in result.notes)
    per_k_note = any("coding-count properties" in note for note in result.notes)
    ok = (
        result.passed
        and has_notes
        and per_k_note
        and witness.value == F(1, 6)
        and t.elapsed < 5.0
    )
    report(
        "criterion 9 (measure claims reported, not measured)",
        ok,
        f"notes={len(result.notes)}, continuum witness {witness.value}, {t.elapsed:.2f} s",
    )
