"""Benchmark of overlapifs: four workloads, end to end and per module.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: dense-sweep, sparse-points, dimension, cli (see bench/README.md).
Run from any directory of a source checkout; the program is imported from
its ``src/``. The seed fixes every generated input. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Problems found by the correctness
checks go to standard error. Exits non-zero, printing no result, when the
program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from checks import CHECKS, HAND_CHECKED
import selftest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
OUT = BENCH / "out"

# Set-ups run in two batches, before and after the operations, so that their
# median does not rest on one moment of the machine's swinging speed. One
# untimed warm-up goes first; it also writes the bytecode caches.
SETUP_REPEATS = 5
PROBE_REPEATS = 5
WORKER_TIMEOUT_S = 150
CHILD_TIMEOUT_S = 60

# m = 5 members with both extreme pairs disjoint, one per overlap pattern of
# the middle pairs, so that seeds vary tails, ratio and gaps but not the mix.
DENSE_OVERLAPS = ({1}, {2}, {1, 2})
SPARSE_POINTS = 300  # per system, on quad and uneven
# Seeded conjugates of uneven: with uneven and the known miss, bisection
# solves are 6 of the 8 operations, so the median op lies well inside them.
UNEVEN_CONJUGATES = 4
DIM_TOL = 1e-12
# Each operation's time is its fastest over the rounds (best_op_ms), so every
# workload needs a few rounds: cli also compares each --json report across
# rounds, and one dense-sweep round takes 12-22 s.
MIN_ROUNDS = {"cli": 2, "dense-sweep": 2, "sparse-points": 4}

LAYER_MS = {
    "codings.graph_ms": "codings.graph", "codings.classify_ms": "codings.classify",
    "codings.enumerate_ms": "codings.enumerate", "codings.witness_ms": "codings.witness",
    "scc.ms": "scc", "dimension.partition_ms": "dimension.partition",
    "dimension.graph_ms": "dimension.graph", "dimension.solve_ms": "dimension.solve",
    "verify.sweep_ms": "verify.sweep", "verify.harness_ms": "verify.harness",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child(argv, timeout=CHILD_TIMEOUT_S) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{argv[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def _cli_commands(seed: int, run_dir: Path):
    """(label, argv) for every cli operation of one round."""
    rng = inputs.rng_for("cli", seed)
    targets = {"end-overlap": [f"finite:{k}" for k in range(1, 7)] + ["aleph0", "continuum"],
               "no-end-overlap": ["finite:1", "finite:2", "finite:4", "finite:8", "continuum"]}
    commands = []
    for name in inputs.CHECKED_IN:
        path = DATA / f"{name}.ifs"
        case = HAND_CHECKED[name][1]
        point = inputs.word_text(*inputs.random_word(rng, len(inputs.read_ifs(path)), (1, 6), (1, 3)))
        subs = [("validate", []), ("partition", []), ("dim E", ["--set", "E"]), ("dim U1", ["--set", "U1"]),
                ("classify", ["--point", point]), ("witness", ["--target", rng.choice(targets[case])])]
        if case == "end-overlap":
            subs.append(("verify 1", ["--theorem", "1"]))
        subs.append(("verify 3", ["--theorem", "3"]))
        for label, extra in subs:
            out = run_dir / "cli" / f"{len(commands):02d}-{name}-{label.replace(' ', '-')}.json"
            commands.append((f"{name} {label}", [label.split()[0], str(path), *extra, "--json", str(out)]))
    return commands


def build_inputs(workload: str, seed: int, run_dir: Path):
    """Generate the workload's inputs; returns (inputs for checks, worker spec)."""
    rng = inputs.rng_for(workload, seed)
    systems_dir = run_dir / "systems"
    systems_dir.mkdir(parents=True)
    named = []
    if workload == "dense-sweep":
        named = [("noend", DATA / "noend.ifs")]
        for i, overlaps in enumerate(DENSE_OVERLAPS):
            member = inputs.draw_members(rng, 1, lambda r: inputs.equal_ratio_member(r, 5, overlaps))[0]
            named.append((f"member-{i}", member))
    elif workload == "sparse-points":
        named = [("quad", DATA / "quad.ifs"), ("uneven", DATA / "uneven.ifs")]
    elif workload == "dimension":
        named = [(name, DATA / f"{name}.ifs") for name in inputs.CHECKED_IN]
        named.append(("known-miss", inputs.KNOWN_MISS))
        uneven = inputs.read_ifs(DATA / "uneven.ifs")
        conjugates = inputs.draw_members(rng, UNEVEN_CONJUGATES, lambda r: inputs.conjugate(r, uneven))
        named += [(f"uneven-conjugate-{i}", maps) for i, maps in enumerate(conjugates)]
    elif workload == "cli":
        named = [(name, DATA / f"{name}.ifs") for name in inputs.CHECKED_IN]
    else:
        raise BenchError(f"unknown workload {workload!r}")

    paths, systems = [], []
    for name, source in named:
        if isinstance(source, Path):
            path = source
        else:
            path = systems_dir / f"{name}.ifs"
            inputs.write_ifs(path, name, source)
        paths.append(str(path))
        systems.append((name, inputs.read_ifs(path)))

    points, commands = [], []
    if workload == "sparse-points":
        for index, (_, maps) in enumerate(systems):
            for _ in range(SPARSE_POINTS):
                points.append((index, *inputs.random_word(rng, len(maps), (12, 24), (3, 8))))
    if workload == "cli":
        commands = _cli_commands(seed, run_dir)
        (run_dir / "cli").mkdir()
    known_fault = [i for i, (name, _) in enumerate(named) if name == "known-miss"]
    checks_in = {"systems": systems, "points": points, "commands": commands, "tol": DIM_TOL,
                 "known_fault": known_fault}
    spec = {"workload": workload, "src": str(SRC), "systems": paths, "points": points, "tol": DIM_TOL,
            "commands": [argv for _, argv in commands], "run_dir": str(run_dir),
            "min_rounds": MIN_ROUNDS.get(workload, 1)}
    return checks_in, spec


def run_worker(spec: dict, run_dir: Path, tag: str) -> dict:
    spec_path, result_path = run_dir / f"spec-{tag}.json", run_dir / f"result-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    _child([str(BENCH / "worker.py"), "run", str(spec_path), str(result_path)], WORKER_TIMEOUT_S)
    return json.loads(result_path.read_text(encoding="utf-8"))


def _probe_ms(argv, key: str) -> float:
    return statistics.median(json.loads(_child(argv))[key] for _ in range(PROBE_REPEATS))


def _interpreter_ms() -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)  # no timeout: it would poll
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def best_op_ms(worker: dict) -> list[float]:
    """Each operation's fastest time over the rounds of the run, in round order.

    The machine's speed swings by up to 2x for seconds at a time and drifts
    over minutes, so a mean or median of rounds reports the machine's level
    as much as the program's speed. The work of one operation is the same in
    every round; its fastest time is what the program needs when nothing
    slows it, and it repeats across runs far better.
    """
    per_round = len(worker["op_ms"]) // worker["rounds"]
    return [min(worker["op_ms"][i::per_round]) for i in range(per_round)]


def layer_metrics(base: dict, traced: dict, setups: list, seed: int, run_dir: Path) -> dict:
    rounds = traced["rounds"]
    layers = traced["layers"]
    ms, calls, counts = layers["ms"], layers["calls"], layers["counts"]
    per_round = {name: ms.get(span, 0.0) / rounds for name, span in LAYER_MS.items()}
    points = calls.get("codings.graph", 0) / rounds
    nodes = counts.get("codings.graph_nodes", 0) / rounds
    radius_calls = calls.get("dimension.radius", 0)

    probe_dir = run_dir / "probe"
    probe_dir.mkdir()
    probe_spec = probe_dir / "spec.json"
    probe_spec.write_text(json.dumps({"src": str(SRC), "commands": [
        [*argv[:-1], str(probe_dir / Path(argv[-1]).name)] for _, argv in _cli_commands(seed, run_dir)
    ]}), encoding="utf-8")
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))

    values = {
        "cli.interpreter_ms": (_interpreter_ms(), "ms"),
        "cli.import_ms": (statistics.median(s["import_ms"] for s in setups), "ms"),
        "cli.numpy_import_ms": (_probe_ms([str(BENCH / "worker.py"), "numpy"], "numpy_import_ms"), "ms"),
        "cli.command_ms": (json.loads(_child([str(BENCH / "worker.py"), "commands", str(probe_spec)]))
                           ["command_ms"], "ms"),
        "system.load_ms": (traced["load_ms"], "ms"),
        "system.validate_ms": (traced["validate_ms"], "ms"),
        "exact.piece_calls": (counts.get("exact.piece_calls", 0) / rounds, "count"),
        "exact.invert_calls": (counts.get("exact.invert_calls", 0) / rounds, "count"),
        "codings.graph_ms": (per_round["codings.graph_ms"], "ms"),
        "codings.graph_nodes": (nodes, "count"),
        "codings.points": (points, "count"),
        "codings.node_reuse": (points / nodes if nodes else 0.0, "ratio"),
        "codings.classify_ms": (per_round["codings.classify_ms"], "ms"),
        "codings.enumerate_ms": (per_round["codings.enumerate_ms"], "ms"),
        "codings.witness_ms": (per_round["codings.witness_ms"], "ms"),
        "scc.calls": (calls.get("scc", 0) / rounds, "count"),
        "scc.ms": (per_round["scc.ms"], "ms"),
        "dimension.partition_ms": (per_round["dimension.partition_ms"], "ms"),
        "dimension.graph_ms": (per_round["dimension.graph_ms"], "ms"),
        "dimension.solve_ms": (per_round["dimension.solve_ms"], "ms"),
        "dimension.radius_calls": (radius_calls / rounds, "count"),
        "dimension.radius_ms": (ms.get("dimension.radius", 0.0) / radius_calls if radius_calls else 0.0, "ms"),
        "dimension.bisection_steps": (counts.get("dimension.bisection_steps", 0) / rounds, "count"),
        "verify.sweep_ms": (per_round["verify.sweep_ms"], "ms"),
        "verify.harness_ms": (per_round["verify.harness_ms"], "ms"),
        "trace.overhead_s": ((sum(best_op_ms(traced)) - sum(best_op_ms(base))) / 1e3, "s"),
        "src_lines": (src_lines, "lines"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    missing = [p for p in (SRC / "overlapifs" / "__init__.py", *(DATA / f"{n}.ifs" for n in inputs.CHECKED_IN))
               if not p.is_file()]
    if missing:
        print(f"error: program files missing: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        checks_in, spec = build_inputs(args.workload, args.seed, run_dir)
        spec.update(seconds=args.seconds, trace=False,
                    spans=str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        setup_argv = [str(BENCH / "worker.py"), "setup", str(SRC), *spec["systems"]]
        _child(setup_argv)
        setups = [json.loads(_child(setup_argv)) for _ in range(SETUP_REPEATS)]
        base = run_worker(spec, run_dir, "base")
        setups += [json.loads(_child(setup_argv)) for _ in range(SETUP_REPEATS)]
        workers = [base]
        if args.trace:
            traced = run_worker(dict(spec, trace=True), run_dir, "traced")
            workers.append(traced)
            metrics = layer_metrics(base, traced, setups, args.seed, run_dir)
        else:
            best = best_op_ms(base)
            metrics = {
                "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
                "wall_s": {"value": sum(best) / 1e3, "unit": "s"},
                "op_p50_ms": {"value": statistics.median(best), "unit": "ms"},
                "peak_rss_mb": {"value": base["peak_rss_mb"], "unit": "MB"},
            }

        problems = [f"reference self-test: {p}" for p in selftest.run()]
        for worker in workers:
            for error in worker["errors"]:
                print(f"operation failed: {error}", file=sys.stderr)
            if worker["mismatches"]:
                problems.append(f"{worker['mismatches']} outputs changed between rounds")
            if worker is not base and worker["outputs"] != base["outputs"]:
                problems.append("traced outputs differ from untraced outputs")
        # The one operation kept although it fails (a program fault on a fixed
        # input) counts as failed in every round, not as a wrong answer.
        known = set(checks_in["known_fault"])
        wrong = CHECKS[args.workload](checks_in, base["outputs"])
        failing_known = {i for i, _ in wrong if i in known}
        for i, problem in wrong:
            if i in known:
                print(f"known fault: {problem}", file=sys.stderr)
            else:
                problems.append(problem)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] + len(failing_known) * w["rounds"] for w in workers),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
