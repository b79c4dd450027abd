"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces public functions of the ``overlapifs`` modules
with timing wrappers, in every module namespace that binds them, so calls
made between modules are seen too. Each wrapped call records a span (name,
start, end, parent); spans stay in memory until ``dump``. Exact-arithmetic
calls (``Ifs.piece``, ``AffineMap.invert``) are only counted: they run
hundreds of thousands of times per round.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); an attribute "A.b" is method b of class A.
SPANNED = (
    ("codings", "build_residual_graph", "codings.graph"),
    ("codings", "classify_cardinality", "codings.classify"),
    ("codings", "enumerate_codings", "codings.enumerate"),
    ("codings", "make_witness", "codings.witness"),
    ("scc", "strongly_connected_components", "scc"),
    ("dimension", "build_partition", "dimension.partition"),
    ("dimension", "build_graph", "dimension.graph"),
    ("dimension", "solve_dimension", "dimension.solve"),
    ("dimension", "spectral_radius", "dimension.radius"),
    ("verify", "dichotomy_sweep", "verify.sweep"),
    ("verify", "run_theorem_harness", "verify.harness"),
)
COUNTED = (
    ("system", "Ifs.piece", "exact.piece_calls"),
    ("exact", "AffineMap.invert", "exact.invert_calls"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.ms: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack = [0]
        self._next_id = 1

    def span(self, name: str):
        return _Span(self, name)

    def _wrap_spanned(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if name == "codings.graph":
                tracer.counts["codings.graph_nodes"] += len(result.adjacency) + len(result.unexpanded)
            elif name == "dimension.solve" and result.method == "bisection":
                tracer.counts["dimension.bisection_steps"] += result.iterations
            return result

        return wrapper

    def _wrap_counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the functions named above; call once, after importing overlapifs."""
        import overlapifs  # noqa: F401  (loads every module named below)

        modules = [m for k, m in sys.modules.items() if k == "overlapifs" or k.startswith("overlapifs.")]
        for module, attr, name in SPANNED:
            fn = getattr(sys.modules[f"overlapifs.{module}"], attr)
            wrapper = self._wrap_spanned(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
        for module, attr, name in COUNTED:
            cls_name, method = attr.split(".")
            cls = getattr(sys.modules[f"overlapifs.{module}"], cls_name)
            setattr(cls, method, self._wrap_counted(name, getattr(cls, method)))

    def totals(self) -> dict:
        return {"ms": dict(self.ms), "calls": dict(self.calls), "counts": dict(self.counts)}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")


class _Span:
    __slots__ = ("tracer", "name", "sid", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.sid = t._next_id
        t._next_id += 1
        t._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans.append((self.sid, self.name, self.start, end, t._stack[-1]))
        t.ms[self.name] += (end - self.start) * 1e3
        t.calls[self.name] += 1
        return False


def merge(totals: list[dict]) -> dict:
    """Sum the totals of several tracers (one per traced child process)."""
    out = {"ms": Counter(), "calls": Counter(), "counts": Counter()}
    for t in totals:
        for key in out:
            out[key].update(t[key])
    return {key: dict(value) for key, value in out.items()}
