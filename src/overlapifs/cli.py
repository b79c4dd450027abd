"""Command-line front end.

Subcommands: validate, partition, dim, classify, witness, verify. Exit codes
are 0 for success, 1 when the system fails validation, 2 for an undecided
verdict, a failed harness or internal check, and 3 for parse or usage errors.
"""

from __future__ import annotations

import os
import sys
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
    ``name <text>`` line, or ``map r=<rational> b=<rational>``. A second name
    line, duplicate maps and ratios outside (0, 1) are rejected.
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
            if name is not None:
                raise IfsFileError(lineno, "duplicate name line")
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
    """Deterministic 9-place decimal rendering, round half to even, exact at any size."""
    whole, places = divmod(abs(round(Fraction(x) * 10**9)), 10**9)
    sign = "-" if x < 0 or x == 0 and str(x) == "-0.0" else ""  # -1e-12 and -0.0 print as -0.000000000
    return f"{sign}{whole}.{places:09d}"


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


def _inline(value) -> str | None:
    """Compact one-line form for small common shapes, else None."""
    if not isinstance(value, (dict, list)):
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
    if isinstance(value, list) and not any(isinstance(x, (dict, list)) for x in value):
        return "[" + ", ".join(str(x) for x in value) + "]"
    return None


def _render_text(node, out, indent: int = 0) -> None:
    is_dict = isinstance(node, dict)
    for key, value in node.items() if is_dict else enumerate(node):
        label = "  " * indent + (f"{key}:" if is_dict else "-")
        line = _inline(value)
        print(label if line is None else f"{label} {line}", file=out)
        if line is None:
            _render_text(value, out, indent + 1)


def _cmd_validate(args, ifs: Ifs, report: ValidationReport) -> tuple[dict, int]:
    return {"validation": _validation_section(ifs, report)}, EXIT_OK if report.member else EXIT_NOT_MEMBER


def _cell_system(args, ifs: Ifs, report: ValidationReport, reduced: bool = False):
    """Partition, the cell graph (or its reduced system) and its ``--dot`` file."""
    from .dimension import build_graph, build_partition, reduced_system, to_dot

    part = build_partition(ifs, report)
    gds = build_graph(ifs, part)
    if reduced:
        gds = reduced_system(ifs, part, gds)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(gds))
    return part, gds


def _cmd_partition(args, ifs: Ifs, report: ValidationReport) -> tuple[dict, int]:
    part, gds = _cell_system(args, ifs, report)
    fields = {
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
    return fields, EXIT_OK


def _cmd_dim(args, ifs: Ifs, report: ValidationReport) -> tuple[dict, int]:
    from .dimension import solve_dimension

    _, selected = _cell_system(args, ifs, report, reduced=args.set == "U1")
    result = solve_dimension(selected, tol=args.tol)
    fields = {
        "matrix": [list(row) for row in selected.counts],
        "dimension": {
            "value": dec(result.value),
            "bracket": {
                "lo": _rat(result.bracket[0]),
                "hi": _rat(result.bracket[1]),
            },
            "iterations": result.iterations,
            "method": result.method,
        },
    }
    if args.set == "U1":
        fields["note"] = (
            "dimension of the reduced system; it bounds the single-coding set and matches "
            "its dimension through the worked graph-directed construction"
        )
    return fields, EXIT_OK


def _cmd_classify(args, ifs: Ifs, report: ValidationReport) -> tuple[dict, int]:
    from .codings import PointNotInAttractorError, SymbolicPoint, build_residual_graph
    from .codings import classify_cardinality, enumerate_codings

    try:
        point = SymbolicPoint.parse(args.point, ifs)
    except ValueError as exc:
        raise IfsFileError(None, f"bad --point: {exc}") from exc
    graph = build_residual_graph(ifs, point.value, args.max_nodes, args.max_depth)
    try:
        verdict = classify_cardinality(graph)
    except PointNotInAttractorError as exc:  # a parsed point always has a path: a failed check
        raise InternalError(str(exc)) from exc
    prefix_depth = 4
    words = enumerate_codings(ifs, point.value, prefix_depth, graph=graph)
    fields = {
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
    return fields, EXIT_OK if verdict.kind != "unknown" else EXIT_UNDECIDED


def _cmd_witness(args, ifs: Ifs, report: ValidationReport) -> tuple[dict, int]:
    from .codings import Cardinality, UnreachableTargetError, make_witness

    try:
        target = Cardinality.parse(args.target)
    except ValueError as exc:
        raise IfsFileError(None, f"bad --target: {exc}") from exc
    try:
        point = make_witness(ifs, report, target, args.max_nodes, args.max_depth)
    except UnreachableTargetError as exc:
        result = {"kind": "unreachable", "reason": str(exc)}
    else:
        result = {"kind": "constructed", "point": str(point), "value": _rat(point.value)}
    return {"target": args.target, "result": result}, EXIT_OK


def _cmd_verify(args, ifs: Ifs, report: ValidationReport) -> tuple[dict, int]:
    from .verify import run_theorem_harness

    result = run_theorem_harness(
        ifs,
        report,
        args.theorem,
        tol=args.tol,
        max_nodes=args.max_nodes,
        max_depth=args.max_depth,
    )
    fields = {
        "applicable": result.applicable,
        "passed": result.passed,
        "checks": [
            {"name": c.name, "status": "PASS" if c.passed else "FAIL", "detail": c.detail}
            for c in result.checks
        ],
    }
    if result.notes:
        fields["notes"] = result.notes
    return fields, EXIT_OK if result.passed else EXIT_UNDECIDED


# Each command with its help line, in the order the usage lists them.
_COMMANDS = {
    "validate": (_cmd_validate, "check membership and report the overlap structure"),
    "partition": (_cmd_partition, "cut points, admissible cells and the edge matrix"),
    "dim": (_cmd_dim, "solve the spectral dimension equation"),
    "classify": (_cmd_classify, "count the codings of an eventually periodic point"),
    "witness": (_cmd_witness, "construct a point with a prescribed coding count"),
    "verify": (_cmd_verify, "run one of the three verification harnesses"),
}


def _build_parser():
    import argparse  # only the command line needs it, not every importer of parse_ifs_file
    parser = argparse.ArgumentParser(
        prog="overlapifs",
        description="Analyze overlapping one-dimensional self-similar systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, (_, text) in _COMMANDS.items()}
    every, searches = " ".join(_COMMANDS), "classify witness verify"
    # Each flag once: the commands that take it, in the order each command lists them.
    for flag, names, options in (
        ("file", every, {"help": "system description file"}),
        ("--json", every, {"help": "also write the report as JSON to this path"}),
        ("--set", "dim", {"choices": ["E", "U1"], "default": "E", "help": "full or reduced system"}),
        ("--point", "classify", {"required": True, "help": "point as w=<digits>;p=<digits>"}),
        ("--target", "witness", {"required": True, "help": "finite:<k>, aleph0 or continuum"}),
        ("--theorem", "verify", {"type": int, "choices": [1, 2, 3], "required": True,
                                 "help": "which theorem's harness to run"}),
        ("--tol", "dim verify", {"type": float, "default": DEFAULT_TOL,
                                 "help": "bracket width tolerance (default %(default)s)"}),
        ("--max-nodes", searches, {"type": int, "default": DEFAULT_MAX_NODES,
                                   "help": "residual-graph node limit (default %(default)s)"}),
        ("--max-depth", searches, {"type": int, "default": DEFAULT_MAX_DEPTH,
                                   "help": "residual-graph depth limit (default %(default)s)"}),
        ("--dot", "partition dim", {"help": "write the cell digraph, or dim's solved system, "
                                            "in DOT form to this path"}),
    ):
        for name in names.split():
            commands[name].add_argument(flag, **options)
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the parse-error code
        return EXIT_PARSE if exc.code not in (0, None) else 0
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:  # exact values of any size print in full, until the command returns
        sys.set_int_max_str_digits(0)
    try:
        code = _run(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early. Point fd 1 at devnull, so that the
        # interpreter's own flush at exit cannot raise again, and end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(args, out) -> int:
    """Run one command: the one place that maps a failure to its line and exit code.

    It loads and validates the system, refuses a non-member (``validate`` reports
    one instead), calls the command, writes ``--json`` and prints the report.
    Nothing is written to ``out`` inside the ``try``, so a closed pipe reaches ``main``.
    """
    failure = None
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            source = parse_ifs_file(fh.read())
        ifs = Ifs.from_maps(source.maps)
        validation = validate(ifs)
        violation = validation.violation  # None exactly for a member
        if violation is not None and args.command != "validate":
            reason = f"{violation.condition.value} ({violation.detail})"
            failure = f"system is not a member: {reason}", EXIT_NOT_MEMBER
        else:
            shown = {key: value for key, value in vars(args).items() if key in ("set", "theorem")}
            report = {"command": args.command, **shown, "system": _system_section(source, ifs)}
            fields, code = _COMMANDS[args.command][0](args, ifs, validation)
            report.update(fields)
            if args.json:
                import json
                with open(args.json, "w", encoding="utf-8") as fh:
                    json.dump(report, fh, indent=2)
                    fh.write("\n")
    except InternalError as exc:
        failure = f"error: {exc}", EXIT_UNDECIDED
    except (IfsFileError, OSError, ValueError) as exc:
        failure = f"error: {exc}", EXIT_PARSE
    if failure is not None:
        print(failure[0], file=out)
        return failure[1]
    _render_text(report, out)
    for check in report.get("checks", ()):  # verify's verdict lines follow its report
        print(f"[{check['status']}] {check['name']}", file=out)
    return code


if __name__ == "__main__":
    sys.exit(main())
