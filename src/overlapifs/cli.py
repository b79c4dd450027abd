"""Command-line front end.

Subcommands: validate, partition, dim, classify, witness, verify. Exit codes
are 0 for success, 1 when the system fails validation, 2 for an undecided
verdict, a failed harness or internal check, and 3 for parse or usage errors.
"""

from __future__ import annotations

import os
import sys
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from .exact import AffineMap, _Value, format_rational, parse_rational
from .system import DEFAULT_MAX_DEPTH, DEFAULT_MAX_NODES, DEFAULT_TOL, Ifs, InternalError
from .system import ValidationReport, end_case, validate

# Each command imports the modules it runs (codings, dimension, verify, json)
# when it runs, so that start-up compiles and executes only those.

__all__ = ["IfsFile", "IfsFileError", "main", "parse_ifs_file"]

EXIT_OK = 0
EXIT_NOT_MEMBER = 1
EXIT_UNDECIDED = 2
EXIT_PARSE = 3

_NINE_PLACES = Decimal("0.000000001")


class IfsFileError(ValueError):
    """Bad system description file; carries the 1-based line number."""

    def __init__(self, line: int | None, detail: str):
        self.line = line
        self.detail = detail
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{detail}")


class IfsFile(_Value):
    """Parsed description file: maps in file order plus an optional name."""

    maps: tuple[AffineMap, ...]
    name: str | None


def parse_ifs_file(text: str) -> IfsFile:
    """Parse the description grammar.

    Lines are either blank, comments starting with ``#``, an optional
    ``name <text>`` line, or ``map r=<rational> b=<rational>``. Duplicate
    maps and ratios outside (0, 1) are rejected.
    """
    maps: list[AffineMap] = []
    name: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "name":
            if len(tokens) < 2:
                raise IfsFileError(lineno, "name line needs a value")
            name = line[len("name") :].strip()
            continue
        if tokens[0] != "map":
            raise IfsFileError(lineno, f"unknown directive {tokens[0]!r}")
        if len(tokens) != 3 or not tokens[1].startswith("r=") or not tokens[2].startswith("b="):
            raise IfsFileError(lineno, "map line must look like 'map r=<rational> b=<rational>'")
        try:
            ratio = parse_rational(tokens[1][2:])
            offset = parse_rational(tokens[2][2:])
        except ValueError as exc:
            raise IfsFileError(lineno, str(exc)) from exc
        if not (0 < ratio < 1):
            raise IfsFileError(lineno, f"ratio {format_rational(ratio)} outside (0, 1)")
        candidate = AffineMap(ratio, offset)
        if candidate in maps:
            raise IfsFileError(lineno, "duplicate map")
        maps.append(candidate)
    if not maps:
        raise IfsFileError(None, "no map lines found")
    return IfsFile(maps=tuple(maps), name=name)


def dec(x) -> str:
    """Deterministic 9-place decimal rendering, round half to even."""
    with localcontext() as ctx:
        ctx.prec = 60
        if isinstance(x, Fraction):
            d = Decimal(x.numerator) / Decimal(x.denominator)
        else:
            d = Decimal(x)
        return format(d.quantize(_NINE_PLACES, rounding=ROUND_HALF_EVEN), "f")


def _rat(x: Fraction) -> dict:
    return {"exact": format_rational(x), "decimal": dec(x)}


def _interval(iv) -> dict:
    return {"lo": _rat(iv.lo), "hi": _rat(iv.hi)}


def _map_entry(f: AffineMap) -> dict:
    return {"r": format_rational(f.ratio), "b": format_rational(f.offset)}


def _system_section(source: IfsFile, ifs: Ifs) -> dict:
    return {
        "name": source.name,
        "maps": [_map_entry(f) for f in ifs.maps],
        "input_order": [source.maps.index(f) + 1 for f in ifs.maps],
        "hull": _interval(ifs.hull),
    }


def _validation_section(ifs: Ifs, report: ValidationReport) -> dict:
    section: dict = {"verdict": "member" if report.member else "violation"}
    if report.member:
        section["overlaps"] = [
            {
                "pair": spec.index,
                "u": spec.u,
                "v": spec.v,
                "interval": _interval(spec.overlap),
                "composed": _map_entry(spec.composed),
            }
            for spec in report.overlaps
        ]
        section["disjoint_pairs"] = list(report.disjoint_pairs)
        section["u_max"] = report.u_max
        section["v_max"] = report.v_max
        case = end_case(ifs, report)
        section["case"] = {
            "tag": case.tag,
            "left_overlaps": case.left_overlaps,
            "right_overlaps": case.right_overlaps,
        }
    else:
        assert report.violation is not None
        section["violated_condition"] = report.violation.condition.value
        section["witness"] = report.violation.detail
    return section


def _dimension_section(result) -> dict:
    return {
        "value": dec(result.value),
        "bracket": {
            "lo": _rat(result.bracket[0]),
            "hi": _rat(result.bracket[1]),
        },
        "iterations": result.iterations,
        "method": result.method,
    }


def _emit(report: dict, args, out) -> None:
    if getattr(args, "json", None):
        import json
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    _render_text(report, out)


def _is_scalar(value) -> bool:
    return not isinstance(value, (dict, list))


def _inline(value) -> str | None:
    """Compact one-line form for small common shapes, else None."""
    if _is_scalar(value):
        return str(value)
    if isinstance(value, dict):
        if set(value) == {"exact", "decimal"}:
            return f"{value['exact']} ({value['decimal']})"
        if set(value) == {"lo", "hi"}:
            lo, hi = _inline(value["lo"]), _inline(value["hi"])
            if lo is not None and hi is not None:
                return f"{lo} .. {hi}"
        if set(value) == {"r", "b"}:
            return f"r={value['r']} b={value['b']}"
    if isinstance(value, list) and all(_is_scalar(x) for x in value):
        return "[" + ", ".join(str(x) for x in value) + "]"
    return None


def _render_text(node, out, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(node, dict):
        for key, value in node.items():
            line = _inline(value)
            if line is not None:
                print(f"{pad}{key}: {line}", file=out)
            else:
                print(f"{pad}{key}:", file=out)
                _render_text(value, out, indent + 1)
    elif isinstance(node, list):
        for value in node:
            line = _inline(value)
            if line is not None:
                print(f"{pad}- {line}", file=out)
            else:
                print(f"{pad}-", file=out)
                _render_text(value, out, indent + 1)
    else:
        print(f"{pad}{node}", file=out)


def _load(path: str) -> tuple[IfsFile, Ifs]:
    with open(path, "r", encoding="utf-8") as fh:
        source = parse_ifs_file(fh.read())
    return source, Ifs.from_maps(source.maps)


def _cmd_validate(args, out) -> int:
    source, ifs = _load(args.file)
    report = validate(ifs)
    doc = {
        "command": "validate",
        "system": _system_section(source, ifs),
        "validation": _validation_section(ifs, report),
    }
    _emit(doc, args, out)
    return EXIT_OK if report.member else EXIT_NOT_MEMBER


class _NotMember(Exception):
    """The system failed validation; the reason has been printed."""


def _load_member(args, out) -> tuple[IfsFile, Ifs, ValidationReport]:
    source, ifs = _load(args.file)
    report = validate(ifs)
    if not report.member:
        assert report.violation is not None
        print(
            f"system is not a member: {report.violation.condition.value} "
            f"({report.violation.detail})",
            file=out,
        )
        raise _NotMember
    return source, ifs, report


def _cmd_partition(args, out) -> int:
    from .dimension import build_graph, build_partition, to_dot

    source, ifs, report = _load_member(args, out)
    part = build_partition(ifs, report)
    gds = build_graph(ifs, part)
    doc = {
        "command": "partition",
        "system": _system_section(source, ifs),
        "partition": {
            "points": [_rat(p) for p in part.points],
            "gamma": part.gamma,
            "admissible_pairs": [
                {
                    "pair": i,
                    "interval": _interval(part.pair_interval(i)),
                    "map": d,
                }
                for i, d in part.cells
            ],
        },
        "matrix": [list(row) for row in gds.counts],
    }
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(gds))
    _emit(doc, args, out)
    return EXIT_OK


def _cmd_dim(args, out) -> int:
    from .dimension import build_graph, build_partition, reduced_system, solve_dimension, to_dot

    source, ifs, report = _load_member(args, out)
    part = build_partition(ifs, report)
    gds = build_graph(ifs, part)
    selected = gds
    note = None
    if args.set == "U1":
        selected = reduced_system(ifs, part, gds)
        note = (
            "dimension of the reduced system; it bounds the single-coding set and matches "
            "its dimension through the worked graph-directed construction"
        )
    result = solve_dimension(selected, tol=args.tol)
    doc = {
        "command": "dim",
        "set": args.set,
        "system": _system_section(source, ifs),
        "matrix": [list(row) for row in selected.counts],
        "dimension": _dimension_section(result),
    }
    if note:
        doc["note"] = note
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(selected))
    _emit(doc, args, out)
    return EXIT_OK


def _cmd_classify(args, out) -> int:
    from .codings import PointNotInAttractorError, SymbolicPoint, build_residual_graph
    from .codings import classify_cardinality, enumerate_codings

    source, ifs, report = _load_member(args, out)
    try:
        point = SymbolicPoint.parse(args.point, ifs)
    except ValueError as exc:
        raise IfsFileError(None, f"bad --point: {exc}") from exc
    graph = build_residual_graph(ifs, point.value, args.max_nodes, args.max_depth)
    try:
        verdict = classify_cardinality(graph)
    except PointNotInAttractorError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_UNDECIDED
    prefix_depth = 4
    words = enumerate_codings(ifs, point.value, prefix_depth, graph=graph)
    doc = {
        "command": "classify",
        "system": _system_section(source, ifs),
        "point": {
            "text": str(point),
            "value": _rat(point.value),
        },
        "classification": {
            "kind": verdict.kind,
            "count": verdict.count,
            "limit": verdict.limit,
            "display": str(verdict),
        },
        "graph": {
            "nodes": len(graph.depth),
            "edges": sum(len(graph.residuals.succ[y]) for y in graph.expanded),
            "exhausted": graph.exhausted,
        },
        "prefixes": {
            "depth": prefix_depth,
            "words": [",".join(str(d) for d in w) for w in words],
        },
    }
    _emit(doc, args, out)
    return EXIT_OK if verdict.kind != "unknown" else EXIT_UNDECIDED


def _cmd_witness(args, out) -> int:
    from .codings import Cardinality, UnreachableTargetError, make_witness

    source, ifs, report = _load_member(args, out)
    try:
        target = Cardinality.parse(args.target)
    except ValueError as exc:
        raise IfsFileError(None, f"bad --target: {exc}") from exc
    doc: dict = {
        "command": "witness",
        "system": _system_section(source, ifs),
        "target": args.target,
    }
    try:
        point = make_witness(ifs, report, target, args.max_nodes, args.max_depth)
    except UnreachableTargetError as exc:
        doc["result"] = {"kind": "unreachable", "reason": str(exc)}
        _emit(doc, args, out)
        return EXIT_OK
    doc["result"] = {
        "kind": "constructed",
        "point": str(point),
        "value": _rat(point.value),
    }
    _emit(doc, args, out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    from .verify import run_theorem_harness

    source, ifs, report = _load_member(args, out)
    result = run_theorem_harness(
        ifs,
        report,
        args.theorem,
        tol=args.tol,
        max_nodes=args.max_nodes,
        max_depth=args.max_depth,
    )
    doc = {
        "command": "verify",
        "theorem": args.theorem,
        "system": _system_section(source, ifs),
        "applicable": result.applicable,
        "passed": result.passed,
        "checks": [
            {"name": c.name, "status": "PASS" if c.passed else "FAIL", "detail": c.detail}
            for c in result.checks
        ],
    }
    if result.notes:
        doc["notes"] = result.notes
    _emit(doc, args, out)
    for check in result.checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}", file=out)
    return EXIT_OK if result.passed else EXIT_UNDECIDED


def _build_parser():
    import argparse  # only the command line needs it, not every importer of parse_ifs_file
    parser = argparse.ArgumentParser(
        prog="overlapifs",
        description="Analyze overlapping one-dimensional self-similar systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", help="system description file")
        p.add_argument("--json", help="also write the report as JSON to this path")

    p = sub.add_parser("validate", help="check membership and report the overlap structure")
    add_common(p)

    p = sub.add_parser("partition", help="cut points, admissible cells and the edge matrix")
    add_common(p)
    p.add_argument("--dot", help="write the cell digraph in DOT form to this path")

    p = sub.add_parser("dim", help="solve the spectral dimension equation")
    add_common(p)
    p.add_argument("--set", choices=["E", "U1"], default="E", help="full or reduced system")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="bracket width tolerance")
    p.add_argument("--dot", help="write the solved system's digraph to this path")

    p = sub.add_parser("classify", help="count the codings of an eventually periodic point")
    add_common(p)
    p.add_argument("--point", required=True, help="point as w=<digits>;p=<digits>")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)

    p = sub.add_parser("witness", help="construct a point with a prescribed coding count")
    add_common(p)
    p.add_argument("--target", required=True, help="finite:<k>, aleph0 or continuum")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)

    p = sub.add_parser("verify", help="run one of the three verification harnesses")
    add_common(p)
    p.add_argument("--theorem", type=int, choices=[1, 2, 3], required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.add_argument("--max-depth", type=int, default=DEFAULT_MAX_DEPTH)

    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "partition": _cmd_partition,
    "dim": _cmd_dim,
    "classify": _cmd_classify,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the parse-error code
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        code = _run(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early. Point fd 1 at devnull, so that the
        # interpreter's own flush at exit cannot raise again, and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


def _run(args, out) -> int:
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:  # exact values of any size print in full, until the command returns
        sys.set_int_max_str_digits(0)
    try:
        return _COMMANDS[args.command](args, out)
    except _NotMember:
        return EXIT_NOT_MEMBER
    except BrokenPipeError:
        raise
    except InternalError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_UNDECIDED
    except (IfsFileError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return EXIT_PARSE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
