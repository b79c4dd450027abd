"""Measured side of the benchmark: runs in a fresh interpreter per use.

    worker.py run <spec.json> <result.json>   run a workload's operations
    worker.py setup <src> <file.ifs>...       time import + load + validate
    worker.py numpy                           time ``import numpy``
    worker.py commands <spec.json>            time cli ``main(argv)`` in process
    worker.py cli-child <totals.json> <spans.jsonl> <argv>...
                                              one traced cli command

``run`` repeats whole rounds of the workload's operations for the spec's
seconds (and at least ``min_rounds`` rounds), times every operation, keeps
the outputs of the first round, and compares every later round with it.
The peak resident memory is read as soon as the last round ends. This
process never loads the reference code.
"""

from __future__ import annotations

import io
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

CLI_BOOT = "import sys; from overlapifs.cli import main; sys.exit(main())"
PREFIX_DEPTH = 4
CHILD_TIMEOUT_S = 120


def _check_origin(src: str) -> None:
    import overlapifs

    where = Path(overlapifs.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"overlapifs was imported from {where}, not from {src}")


def _load(paths):
    """Parse, build and validate every system; returns (ifs, report) pairs."""
    import overlapifs as ov
    from overlapifs.cli import parse_ifs_file

    t0 = time.perf_counter()
    systems = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            source = parse_ifs_file(fh.read())
        systems.append(ov.Ifs.from_maps(source.maps))
    t1 = time.perf_counter()
    reports = [ov.validate(ifs) for ifs in systems]
    t2 = time.perf_counter()
    for path, report in zip(paths, reports):
        if not report.member:
            raise SystemExit(f"{path} is not a member: {report.violation}")
    return list(zip(systems, reports)), (t1 - t0) * 1e3, (t2 - t1) * 1e3


def cmd_setup(src: str, paths) -> None:
    t0 = time.perf_counter()
    import overlapifs  # noqa: F401

    t1 = time.perf_counter()
    _, load_ms, validate_ms = _load(paths)
    t2 = time.perf_counter()
    _check_origin(src)
    print(json.dumps({"setup_s": t2 - t0, "import_ms": (t1 - t0) * 1e3,
                      "load_ms": load_ms, "validate_ms": validate_ms}))


def cmd_numpy() -> None:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    print(json.dumps({"numpy_import_ms": (time.perf_counter() - t0) * 1e3}))


def cmd_commands(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    from overlapifs.cli import main

    _check_origin(spec["src"])
    times = []
    for argv in spec["commands"]:
        sink = io.StringIO()
        t0 = time.perf_counter()
        code = main(list(argv), out=sink)
        times.append((time.perf_counter() - t0) * 1e3)
        if code != 0:
            raise SystemExit(f"{argv} exited {code}")
    print(json.dumps({"command_ms": statistics.fmean(times)}))


def cmd_cli_child(totals_path: str, spans_path: str, argv) -> int:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    from overlapifs.cli import main

    with open(os.devnull, "w", encoding="utf-8") as sink:
        with tracer.span("cli.command"):
            code = main(list(argv), out=sink)
    Path(totals_path).write_text(json.dumps(tracer.totals()), encoding="utf-8")
    tracer.dump(spans_path)
    return code


# --- operations ------------------------------------------------------------


def _dense_sweep_ops(ov, systems, spec):
    def op(ifs, report):
        return lambda: ov.run_theorem_harness(ifs, report, 2)

    def out(result):
        return {"applicable": result.applicable, "passed": result.passed,
                "checks": [[c.name, c.passed, c.detail] for c in result.checks]}

    return [op(ifs, rep) for ifs, rep in systems], out


def _sparse_points_ops(ov, systems, spec):
    def op(ifs, x):
        def run():
            graph = ov.build_residual_graph(ifs, x)
            verdict = ov.classify_cardinality(graph)
            return x, verdict, ov.enumerate_codings(ifs, x, PREFIX_DEPTH, graph=graph)
        return run

    def out(result):
        x, verdict, words = result
        return [f"{x.numerator}/{x.denominator}", verdict.kind, verdict.count, [list(w) for w in words]]

    ops = []
    for index, pre, per in spec["points"]:
        ifs = systems[index][0]
        ops.append(op(ifs, ov.evaluate(ifs, pre, per)))
    return ops, out


def _dimension_ops(ov, systems, spec):
    def op(ifs, report):
        def run():
            part = ov.build_partition(ifs, report)
            gds = ov.build_graph(ifs, part)
            full = ov.solve_dimension(gds, spec["tol"])
            reduced = ov.reduced_system(ifs, part, gds)
            return gds, full, reduced, ov.solve_dimension(reduced, spec["tol"])
        return run

    def side(gds, result):
        lo, hi = result.bracket
        return {"counts": [list(row) for row in gds.counts],
                "ratios": [str(v.ratio) for v in gds.vertices],
                "lo": str(lo), "hi": str(hi)}

    def out(result):
        gds, full, reduced, single = result
        return {"E": side(gds, full), "U1": side(reduced, single)}

    return [op(ifs, rep) for ifs, rep in systems], out


def _cli_ops(spec, traced_dir: Path | None):
    env = dict(os.environ, PYTHONPATH=spec["src"])
    worker = str(Path(__file__).resolve())
    children = []

    def op(index, argv):
        def run():
            if traced_dir is None:
                cmd = [sys.executable, "-c", CLI_BOOT, *argv]
            else:
                n = len(children)
                paths = (str(traced_dir / f"totals-{n}.json"), str(traced_dir / f"spans-{n}.jsonl"))
                children.append(paths)
                cmd = [sys.executable, worker, "cli-child", *paths, *argv]
            proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
            # wait(timeout=...) polls with sleeps of up to 50 ms, which would
            # round every operation time up; a blocking wait plus a watchdog
            # that kills a hung child does not.
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
            if code != 0:
                raise RuntimeError(f"{argv[0]} exited with code {code}")
            return index
        return run

    def out(index):
        return Path(spec["commands"][index][-1]).read_text(encoding="utf-8")

    return [op(i, argv) for i, argv in enumerate(spec["commands"])], out, children


def cmd_run(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    workload = spec["workload"]
    traced = spec["trace"]
    tracer = None
    if traced and workload != "cli":
        from tracing import Tracer

        tracer = Tracer()

    import overlapifs as ov

    _check_origin(spec["src"])
    load_ms, validate_ms = [], []
    for _ in range(5 if traced else 1):
        systems, load, validate = _load(spec["systems"])
        load_ms.append(load)
        validate_ms.append(validate)
    if tracer is not None:
        tracer.install()

    children: list = []
    if workload == "cli":
        traced_dir = Path(spec["run_dir"]) / "cli-traces" if traced else None
        if traced_dir is not None:
            traced_dir.mkdir(parents=True, exist_ok=True)
        ops, out, children = _cli_ops(spec, traced_dir)
    else:
        ops, out = {"dense-sweep": _dense_sweep_ops, "sparse-points": _sparse_points_ops,
                    "dimension": _dimension_ops}[workload](ov, systems, spec)

    op_ms, first, errors = [], None, []
    rounds = attempted = failed = mismatches = 0
    # A round starts only if, as long as the last one, it ends by the
    # deadline: rounds of dense-sweep take 12-22 s, and a run that overran
    # by most of a round would stretch the benchmark's total time.
    start = round_start = time.perf_counter()
    round_s = 0.0
    while rounds < spec["min_rounds"] or time.perf_counter() - start + round_s <= spec["seconds"]:
        results = []
        for op in ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("op"):
                        result = op()
                else:
                    result = op()
            except Exception as exc:  # an operation that fails is counted, not fatal
                failed += 1
                errors.append(f"op {len(results)}: {exc!r}")
                result = exc
            op_ms.append((time.perf_counter() - t0) * 1e3)
            results.append(result)
        rounds += 1
        round_s, round_start = time.perf_counter() - round_start, time.perf_counter()
        outputs = [None if isinstance(r, Exception) else out(r) for r in results]
        if first is None:
            first = outputs
        else:
            mismatches += sum(a != b for a, b in zip(first, outputs))
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        layers = tracer.totals()
        tracer.dump(spec["spans"])
    elif traced:
        from tracing import merge

        layers = merge([json.loads(Path(t).read_text(encoding="utf-8")) for t, _ in children])
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            for n, (_, spans) in enumerate(children):
                for line in Path(spans).read_text(encoding="utf-8").splitlines():
                    fh.write(json.dumps(dict(json.loads(line), child=n)) + "\n")
    result = {
        "rounds": rounds, "op_ms": op_ms,
        "attempted": attempted, "failed": failed, "errors": errors[:20],
        "mismatches": mismatches, "peak_rss_mb": peak_rss_mb, "outputs": first,
        "load_ms": statistics.median(load_ms), "validate_ms": statistics.median(validate_ms),
        "layers": layers,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "run":
        cmd_run(*rest)
    elif mode == "setup":
        cmd_setup(rest[0], rest[1:])
    elif mode == "numpy":
        cmd_numpy()
    elif mode == "commands":
        cmd_commands(*rest)
    elif mode == "cli-child":
        return cmd_cli_child(rest[0], rest[1], rest[2:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
