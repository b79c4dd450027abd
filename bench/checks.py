"""Correctness checks: the program's outputs against ``refs``.

Each ``check_<workload>`` takes the generated inputs and the outputs of the
first round (later rounds are compared with the first by the worker) and
returns a list of ``(operation index, problem)``; an empty list means every
output is right.
"""

from __future__ import annotations

import ast
import json
import re
from fractions import Fraction as F

import mpmath

import refs

# Hand-checked overlap structure of the checked-in systems (tests/conftest.py):
# (pair, u, v, composed ratio, composed offset) per overlap, and the end case.
HAND_CHECKED = {
    "quad": ([(1, 1, 1, "1/25", "4/25"), (3, 1, 1, "1/25", "4/5")], "end-overlap"),
    "noend": ([(2, 1, 1, "1/25", "23/50")], "no-end-overlap"),
    "uneven": ([(1, 2, 1, "1/81", "8/81")], "end-overlap"),
}
KNOWN_DIMENSIONS = {("quad", "E"): refs.QUAD_E, ("quad", "U1"): refs.QUAD_U1,
                    ("uneven", "E"): refs.UNEVEN_E}
SWEEP_DETAIL = re.compile(r"^(\d+) points: (\{[^}]*\}), finite counts (\[[^\]]*\])")
WITNESS_DETAIL = re.compile(r"^(w=[\d,]*;p=[\d,]+) = value (-?\d+(?:/\d+)?)$")


def parse_word(text: str):
    pre, per = text.split(";")
    return (tuple(int(t) for t in pre[2:].split(",") if t),
            tuple(int(t) for t in per[2:].split(",") if t))


def _verdict(kind: str, count) -> tuple:
    return (kind, count if kind == "finite" else None)


def _target_verdict(target: str) -> tuple:
    if target.startswith("finite:"):
        return ("finite", int(target.split(":")[1]))
    return ("countable" if target == "aleph0" else "continuum", None)


def _contains(lo: str, hi: str, root) -> bool:
    with mpmath.workdps(80):
        lo_q, hi_q = F(lo), F(hi)
        return (mpmath.mpf(lo_q.numerator) / lo_q.denominator <= root
                <= mpmath.mpf(hi_q.numerator) / hi_q.denominator)


def _close(a, b, digits: int) -> bool:
    with mpmath.workdps(80):
        return abs(a - b) < mpmath.mpf(10) ** (-digits)


def _bracket_problems(label: str, side: dict, tol: float, known: str | None, ratios=None) -> list:
    """Width, containment of the 50-digit root, and the closed form if any."""
    problems = []
    if F(side["hi"]) - F(side["lo"]) > F(tol):
        problems.append(f"{label}: bracket wider than {tol}")
    root = refs.dimension_root(side["counts"], [F(r) for r in (ratios or side["ratios"])])
    if not _contains(side["lo"], side["hi"], root):
        problems.append(f"{label}: bracket [{side['lo']}, {side['hi']}] misses {mpmath.nstr(root, 25)}")
    if known is not None:
        digits = 45 if known != refs.UNEVEN_E else 19
        if not _close(root, refs.closed_form(known), digits):
            problems.append(f"{label}: reference root {mpmath.nstr(root, 25)} is not {known}")
        if not _contains(side["lo"], side["hi"], refs.closed_form(known)):
            problems.append(f"{label}: bracket misses {known}")
    return problems


def _dense_sweep_op(system, out) -> list:
    problems = []
    if not (out["applicable"] and out["passed"]):
        problems.append("harness did not pass")
    for check, passed, detail in out["checks"]:
        if not passed:
            problems.append(f"{check} failed: {detail}")
        elif check.startswith("witness finite("):
            k = int(check[len("witness finite("):-1])
            match = WITNESS_DETAIL.match(detail)
            if match is None:
                problems.append(f"unreadable witness detail {detail!r}")
                continue
            x = system.value(*parse_word(match.group(1)))
            if x != F(match.group(2)) or system.classify(x) != ("finite", k):
                problems.append(f"witness {detail} is not finite({k})")
        elif check == "power-of-two dichotomy sweep":
            match = SWEEP_DETAIL.match(detail)
            if match is None:
                problems.append(f"unreadable sweep detail {detail!r}")
                continue
            points = refs.sweep_points(system)
            tally = {"finite": 0, "countable": 0, "continuum": 0, "unknown": 0}
            counts = set()
            for kind, count in system.classify_many(points):
                tally[kind] += 1
                if kind == "finite":
                    counts.add(count)
            got = (int(match.group(1)), ast.literal_eval(match.group(2)), ast.literal_eval(match.group(3)))
            want = (len(points), tally, sorted(counts))
            if got != want:
                problems.append(f"sweep {got} but the oracle gives {want}")
            if tally["countable"] or any(k & (k - 1) for k in counts):
                problems.append("the oracle finds a non power of two or a countable point")
    return problems


def check_dense_sweep(inputs, outputs) -> list:
    return [(i, f"{name}: {problem}")
            for i, ((name, maps), out) in enumerate(zip(inputs["systems"], outputs)) if out is not None
            for problem in _dense_sweep_op(refs.RefSystem(maps), out)]


def _sparse_points_op(system, pre, per, out) -> list:
    x = system.value(pre, per)
    value, kind, count, words = out
    if F(value) != x:
        return [f"value {value}, expected {x}"]
    problems = []
    want = system.classify(x)
    if _verdict(kind, count) != want:
        problems.append(f"{kind}({count}), the oracle says {want}")
    if words != [list(w) for w in system.prefixes(x, 4)]:
        problems.append(f"prefixes {words[:4]}... differ from the oracle's")
    if list(pre[:4]) not in words:
        problems.append(f"prefixes lack the generating word's {pre[:4]}")
    return problems


def check_sparse_points(inputs, outputs) -> list:
    systems = [refs.RefSystem(maps) for _, maps in inputs["systems"]]
    return [(i, f"{inputs['systems'][index][0]} w={pre};p={per}: {problem}")
            for i, ((index, pre, per), out) in enumerate(zip(inputs["points"], outputs)) if out is not None
            for problem in _sparse_points_op(systems[index], pre, per, out)]


def _dimension_op(name, out, tol) -> list:
    problems = []
    for which in ("E", "U1"):
        problems += _bracket_problems(which, out[which], tol, KNOWN_DIMENSIONS.get((name, which)))
    if not F(out["U1"]["hi"]) < F(out["E"]["lo"]):
        problems.append("dim U1 is not below dim E")
    return problems


def check_dimension(inputs, outputs) -> list:
    return [(i, f"{name}: {problem}")
            for i, ((name, _), out) in enumerate(zip(inputs["systems"], outputs)) if out is not None
            for problem in _dimension_op(name, out, inputs["tol"])]


def _cli_op(label, doc, docs, system) -> list:
    name, sub = label.split(" ", 1)
    if sub == "validate":
        overlaps, case = HAND_CHECKED[name]
        got = [(o["pair"], o["u"], o["v"], o["composed"]["r"], o["composed"]["b"])
               for o in doc["validation"]["overlaps"]]
        if got != overlaps or doc["validation"]["case"]["tag"] != case:
            return [f"overlaps {got}, case {doc['validation']['case']['tag']}"]
    elif sub.startswith("dim"):
        which = sub.split()[-1]
        side = {"counts": doc["matrix"], "lo": doc["dimension"]["bracket"]["lo"]["exact"],
                "hi": doc["dimension"]["bracket"]["hi"]["exact"]}
        ratios = _cli_vertex_ratios(docs.get(f"{name} partition"), docs.get(f"{name} validate"), which)
        if ratios is None:
            return ["no partition or validate report to read the vertex ratios from"]
        problems = _bracket_problems(which, side, 1e-9, KNOWN_DIMENSIONS.get((name, which)), ratios)
        full = docs.get(f"{name} dim E")
        if which == "U1" and full and not (F(side["hi"]) < F(full["dimension"]["bracket"]["lo"]["exact"])):
            problems.append("dim U1 is not below dim E")
        return problems
    elif sub == "classify":
        pre, per = parse_word(doc["point"]["text"])
        x = system.value(pre, per)
        verdict = _verdict(doc["classification"]["kind"], doc["classification"]["count"])
        words = [w.split(",") for w in doc["prefixes"]["words"]]
        expected = [[str(d) for d in w] for w in system.prefixes(x, doc["prefixes"]["depth"])]
        if F(doc["point"]["value"]["exact"]) != x or verdict != system.classify(x) or words != expected:
            return [f"{doc['point']['text']} -> {verdict} disagrees with the oracle"]
    elif sub == "witness":
        result = doc["result"]
        if result["kind"] != "constructed":
            return [f"{result}"]
        x = system.value(*parse_word(result["point"]))
        if F(result["value"]["exact"]) != x or system.classify(x) != _target_verdict(doc["target"]):
            return [f"{result['point']} is not {doc['target']}"]
    elif sub.startswith("verify"):
        if not (doc["applicable"] and doc["passed"]):
            return [f"passed={doc['passed']}"]
    return []


def check_cli(inputs, outputs) -> list:
    problems = []
    docs = {label: json.loads(out) for (label, _), out in zip(inputs["commands"], outputs) if out is not None}
    systems = {name: refs.RefSystem(maps) for name, maps in inputs["systems"]}
    for i, (label, _) in enumerate(inputs["commands"]):
        if label in docs:
            problems += [(i, f"{label}: {p}") for p in
                         _cli_op(label, docs[label], docs, systems[label.split(" ", 1)[0]])]
    return problems


def _cli_vertex_ratios(partition, validation, which):
    """Ratio of each vertex of the E or U1 matrix, from the cli's own reports.

    Vertices are the admissible pairs in order, each carried by the map
    named in the partition report; U1 drops the pairs whose interval is an
    overlap of the validate report.
    """
    if partition is None or validation is None:
        return None
    maps = partition["system"]["maps"]
    overlaps = [(o["interval"]["lo"]["exact"], o["interval"]["hi"]["exact"])
                for o in validation["validation"]["overlaps"]]
    ratios = []
    for pair in partition["partition"]["admissible_pairs"]:
        interval = (pair["interval"]["lo"]["exact"], pair["interval"]["hi"]["exact"])
        if which == "U1" and interval in overlaps:
            continue
        ratios.append(F(maps[pair["map"] - 1]["r"]))
    return ratios


CHECKS = {"dense-sweep": check_dense_sweep, "sparse-points": check_sparse_points,
          "dimension": check_dimension, "cli": check_cli}
