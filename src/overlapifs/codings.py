"""Digit codings of points: residual graphs, cardinality, witnesses.

A coding of x is an infinite digit word (d_i) with x = lim f_{d_1..d_n}(0).
For an exact rational x the possible first digits are the maps whose hull
image contains x, and stripping a digit replaces x by the exact inverse
image. Closing that step over all admissible digits yields a finite directed
graph whose infinite paths are exactly the codings of x, which reduces the
counting questions to graph structure. One step decides a point or a batch:
one Tarjan pass, and a walk within the limits only for a root that might hit one.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from typing import Iterable, Sequence

from .exact import _Value
from .system import DEFAULT_MAX_DEPTH, DEFAULT_MAX_NODES, Ifs, InternalError, ValidationReport, end_case

__all__ = [
    "Cardinality",
    "PointNotInAttractorError",
    "ResidualGraph",
    "SymbolicPoint",
    "UnreachableTargetError",
    "WitnessVerificationError",
    "build_residual_graph",
    "classify_cardinality",
    "classify_many",
    "enumerate_codings",
    "evaluate",
    "make_witness",
    "symbolic_point",
]


class PointNotInAttractorError(ValueError):
    """The queried point carries no infinite digit path at all."""


class UnreachableTargetError(ValueError):
    """No point of the attractor has the requested number of codings."""


class WitnessVerificationError(InternalError):
    """A constructed witness failed its classification self-check."""


class SymbolicPoint(_Value):
    """Eventually periodic digit word and the exact point it encodes.

    ``value`` is the preperiod composition applied to the fixed point of the
    period composition.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    value: Fraction

    def __str__(self) -> str:
        return self.brief(None)

    def brief(self, keep: int | None = 12) -> str:
        """``w=<digits>;p=<digits>``, a word cut to its first and last ``keep`` digits where shorter."""
        def show(w: tuple[int, ...]) -> str:
            full = ",".join(map(str, w))
            if keep is None or len(w) <= 2 * keep:
                return full
            head, tail = show(w[:keep]), show(w[len(w) - keep:])
            return min(full, f"{head} ...({len(w) - 2 * keep} digits left out)... {tail}", key=len)
        return f"w={show(self.preperiod)};p={show(self.period)}"

    @classmethod
    def parse(cls, text: str, ifs: Ifs) -> SymbolicPoint:
        """Parse the ``w=<digits>;p=<digits>`` form, digits comma-separated."""
        parts = text.strip().split(";")
        if len(parts) != 2 or not parts[0].startswith("w=") or not parts[1].startswith("p="):
            raise ValueError(f"point must look like 'w=1;p=4', got {text!r}")
        try:
            pre = tuple(int(tok) for tok in parts[0][2:].split(",") if tok)
            per = tuple(int(tok) for tok in parts[1][2:].split(",") if tok)
        except ValueError as exc:
            raise ValueError(f"bad digits in point {text!r}") from exc
        return symbolic_point(ifs, pre, per)


def evaluate(ifs: Ifs, preperiod: Sequence[int], period: Sequence[int]) -> Fraction:
    """Exact value of an eventually periodic digit word.

    From the ``Ifs.word_triple`` maps (a, b, c) of the period and (p, q, r) of the preperiod
    it is (p*b + q*(c - a)) / (r*(c - a)), reduced once, and unchanged when the period is
    rotated and the preperiod extended consistently. A digit outside 1..m raises ValueError.
    """
    if not period:
        raise ValueError("period word must be nonempty")
    a, b, c = ifs.word_triple(period)
    p, q, r = ifs.word_triple(preperiod)
    return Fraction(p * b + q * (c - a), r * (c - a))


def symbolic_point(ifs: Ifs, preperiod: Sequence[int], period: Sequence[int]) -> SymbolicPoint:
    value = evaluate(ifs, preperiod, period)
    return SymbolicPoint(tuple(preperiod), tuple(period), value)


def check_limits(max_nodes: int, max_depth: int) -> None:
    if max_nodes < 1 or max_depth < 1:
        raise ValueError("max_nodes and max_depth must be >= 1")


class _Residuals:
    """Residuals of one system, each interned once as an id 0, 1, 2, ...

    ``pairs[i]``, the key of ``ids``, is residual i as a reduced pair of ints, as
    are the roots, each checked against the hull by ``root``. ``successors`` sets
    ``succ[i]``, the ids of its inverse images through its admissible digits
    ``labels[i]``: row ``(d, lo, hi, a, b, c)``'s hull image [lo, hi] / den holds n/q
    when lo <= floor(n*den / q) and ceil(n*den / q) <= hi, and x -> (a*x + b) / c takes
    it back to (c*n - b*q) / (a*q), interned reduced. No residual is expanded twice,
    so all roots share one graph: ``expand`` reaches it from every root in one pass,
    and ``walk`` follows one root within the limits only when it might hit one.
    """

    def __init__(self, ifs: Ifs, roots: Sequence[tuple[int, int]], max_nodes: int, max_depth: int):
        check_limits(max_nodes, max_depth)
        self.den, self.hull, pieces = ifs.bounds
        self.rows = [(d, *iv, *f) for d, (iv, f) in enumerate(zip(pieces, ifs.integer_maps), 1)]
        self.ifs, self.max_nodes, self.max_depth = ifs, max_nodes, max_depth
        self.ids: dict[tuple[int, int], int] = {}
        self.pairs: list[tuple[int, int]] = []
        self.labels: dict[int, list[int]] = {}
        self.succ: list[tuple[int, ...] | None] = []
        self.roots = [self.root(pair) for pair in roots]

    def root(self, pair: tuple[int, int]) -> int:
        """The id of a point in the hull as a reduced pair (num, den), den > 0."""
        (n, q), (lo, hi) = pair, self.hull
        if not lo * q <= n * self.den <= hi * q:
            raise PointNotInAttractorError(f"{Fraction(n, q)} lies outside the hull {self.ifs.hull}")
        i = self.ids.setdefault(pair, len(self.pairs))
        if i == len(self.pairs):
            self.pairs.append(pair)
            self.succ.append(None)
        return i

    def value(self, i: int) -> Fraction:
        return Fraction(*self.pairs[i])

    def successors(self, i: int) -> tuple[int, ...]:
        """The ids of residual i's inverse images, computed once.

        num = c*n - b*q over a*q is reduced by g = gcd(num, a * gcd(c, q)), which is
        gcd(num, a*q) because n/q is reduced. Take a prime power p**e dividing num and
        a*q. If p does not divide q, p**e divides a. Otherwise p does not divide n, and
        p**f, f = min(e, v_p(q)), divides num + b*q = c*n, so it divides c; then
        e <= v_p(a) + f <= v_p(a) + v_p(gcd(c, q)). Each gcd has one small operand, so
        a residual of L digits takes time linear in L, where gcd(num, a*q) takes L**2.
        """
        out = self.succ[i]
        if out is None:
            ids, pairs, succ = self.ids, self.pairs, self.succ
            n, q = pairs[i]
            fl, r = divmod(n * self.den, q)
            ce = fl + (r > 0)
            digits, found = [], []
            for d, lo, hi, a, b, c in self.rows:
                if lo <= fl and ce <= hi:
                    num, den = c * n - b * q, a * q
                    g = gcd(num, a * gcd(c, q))
                    pair = num // g, den // g
                    j = ids.setdefault(pair, len(pairs))
                    if j == len(pairs):
                        pairs.append(pair)
                        succ.append(None)
                    digits.append(d)
                    found.append(j)
            # No point lies in three hull images once next-but-one images are disjoint.
            assert len(digits) <= 2, f"point {Fraction(n, q)} lies in {len(digits)} images"
            self.labels[i] = digits
            out = succ[i] = tuple(found)
        return out

    def expand(self, cap: int) -> bool:
        """Expand every id reachable from the roots, in the order interned, while
        at most ``cap`` ids are interned. True when none is left unexpanded.
        Each interned id is a root or a successor, so the order is breadth-first."""
        i = 0
        while i < len(self.pairs) <= cap:
            self.successors(i)
            i += 1
        return i == len(self.pairs)

    def walk(self, root: int) -> tuple[dict[int, int], list[int], str | None]:
        """Breadth-first closure of one root within the limits: the depth of each
        discovered id, the ids expanded in the order reached, and the limit
        that left some id unexpanded (None exactly when none was left). A root
        that reaches at most L = min(max_nodes, max_depth) ids hits no limit:
        it discovers no more ids than it reaches, each at a depth below L."""
        depth = {root: 0}
        queue = deque([root])
        expanded: list[int] = []
        limit_hit: str | None = None
        while queue:
            y = queue.popleft()
            if depth[y] >= self.max_depth:
                limit_hit = "max_depth"
                continue
            for z in self.successors(y):
                if z not in depth:
                    if len(depth) >= self.max_nodes:
                        limit_hit = "max_nodes"
                        break
                    depth[z] = depth[y] + 1
                    queue.append(z)
            else:
                expanded.append(y)
        return depth, expanded, limit_hit


class ResidualGraph(_Value):
    """Closure of a point under digit-stripping: a view of its residuals.

    ``flag``, ``walks`` and ``walk`` are ``_decide``'s facts of every id and
    the root's walk within the limits, None when the graph closed. Read off
    the walk, ``limit_hit`` names the limit that left an id unexpanded, None
    exactly when ``exhausted``; ``depth`` (each id reached, with its depth)
    and ``expanded`` (the ids expanded, in order) are the walk's, and a closed
    graph walks once when they are first read. ``adjacency`` (each expanded
    node's digit-labelled inverse images, at most two) and ``unexpanded`` follow from them.
    """

    residuals: _Residuals
    root_id: int
    flag: bytearray
    walks: list[int]
    walk: tuple[dict[int, int], list[int], str | None] | None

    __eq__ = object.__eq__  # identity: each graph is its own walk
    __hash__ = object.__hash__

    @property
    def root(self) -> Fraction:
        return self.residuals.value(self.root_id)

    limit_hit = property(lambda self: self.walk[2] if self.walk else None)

    @property
    def exhausted(self) -> bool:
        return self.limit_hit is None

    @cached_property
    def _walk(self) -> tuple[dict[int, int], list[int], str | None]:
        return self.walk or self.residuals.walk(self.root_id)

    depth = property(lambda self: self._walk[0])
    expanded = property(lambda self: self._walk[1])

    @cached_property
    def adjacency(self) -> dict[Fraction, dict[int, Fraction]]:
        res, value = self.residuals, self.residuals.value
        return {value(y): dict(zip(res.labels[y], map(value, res.succ[y]))) for y in self.expanded}

    @cached_property
    def unexpanded(self) -> frozenset[Fraction]:
        return frozenset(map(self.residuals.value, self.depth.keys() - self.expanded))


def build_residual_graph(
    ifs: Ifs,
    x: Fraction,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> ResidualGraph:
    """Breadth-first closure of x under digit-stripping, deduplicated exactly.

    Dead ends (no admissible digit) stay in the graph; pruning them is the
    classifier's job. Limits never raise, they only mark the graph as not
    exhausted. The graph is ``_decide`` on a batch of one: expanding while
    at most min(max_nodes, max_depth) ids are interned either closes the
    graph, and then no limit can be hit, or the root walks within the limits.
    """
    res = _Residuals(ifs, [(x.numerator, x.denominator)], max_nodes, max_depth)
    flag, walks, ran = _decide(res)
    return ResidualGraph(res, res.roots[0], flag, walks, ran.get(res.roots[0]))


class Cardinality(_Value):
    """How many codings a point has: a classifier's verdict, or the target
    ``make_witness`` builds a point for.

    ``kind`` is one of "finite", "countable", "continuum", "unknown";
    ``count`` is set for finite verdicts and ``limit`` names the resource
    limit behind an unknown verdict. A target is never unknown.
    """

    kind: str
    count: int | None = None
    limit: str | None = None

    @classmethod
    def finite(cls, k: int) -> Cardinality:
        if k < 1:
            raise ValueError("finite coding count must be >= 1")
        return cls("finite", k, None)

    @classmethod
    def countable(cls) -> Cardinality:
        return cls("countable", None, None)

    @classmethod
    def continuum(cls) -> Cardinality:
        return cls("continuum", None, None)

    @classmethod
    def unknown(cls, limit: str | None) -> Cardinality:
        return cls("unknown", None, limit)

    @classmethod
    def parse(cls, text: str) -> Cardinality:
        """Read a target: ``finite:<k>`` with k >= 1, ``aleph0`` or ``continuum``."""
        text = text.strip()
        if text in ("aleph0", "continuum"):
            return cls("countable" if text == "aleph0" else text, None, None)
        if text.startswith("finite:"):
            try:
                return cls.finite(int(text[len("finite:"):]))
            except ValueError as exc:
                raise ValueError(f"bad finite count in target {text!r}: {exc}") from exc
        raise ValueError(f"bad target {text!r} (want finite:<k>, aleph0 or continuum)")

    def __str__(self) -> str:
        if self.kind == "finite":
            return f"finite({self.count})"
        if self.kind == "countable":
            return "countably-infinite"
        if self.kind == "unknown":
            return f"unknown({self.limit or 'limit'})"
        return self.kind


def _facts(
    succ: Sequence[Sequence[int] | None], bound: int, roots: int
) -> tuple[bytearray, list[int], list[int]]:
    """Root-independent facts of every node y of a graph on ids 0..n-1.

    ``succ[y]`` is None for a node never expanded: it gets a self-loop, so
    pruning never proves it dead. ``walks[y]`` is 0 exactly when y has no
    infinite path (dead-end pruning removes it). ``flag[y]`` is 2 when y
    reaches a cycle with a branch inside (a continuum of paths), else 1 when
    it reaches a cycle with an exit to a live node (countably many: the exit
    leads to a cycle again), else 0, and then ``walks[y]`` counts the walks
    from y into terminal cycles. ``size[y]`` bounds the number of nodes y
    reaches, y included: its component's size plus its exits' sizes, capped
    at ``bound + 1``, which a node never expanded and all that reach it get.
    One Tarjan pass decides each component as it closes; a successor of size 0 lies in it,
    and a top whose successors are all decided, none of them itself, closes alone at once.
    It takes the ids expansion interned, ``roots..n-1``, last first, then the roots in order:
    an id is interned after a parent that reaches it, so most tops then close at once, and
    sweep roots are interned successors-first. Facts do not depend on the order.
    """
    n = len(succ)
    flag, walks, size = bytearray(n), [0] * n, [0] * n
    index, low = [0] * n, [0] * n  # visit order, from 1; a visited node of size 0 is on the stack
    stack: list[int] = []
    counter = 0
    for top in chain(range(n - 1, roots - 1, -1), range(roots)):
        if index[top]:
            continue
        index[top] = low[top] = counter = counter + 1
        out = succ[top]
        if out is not None and top not in out:
            f, w, u = 0, 0, 1
            for z in out:
                if not index[z]:
                    break
                u, w, f = u + size[z], w + walks[z], flag[z] if flag[z] > f else f
            else:  # every successor is decided: top closes alone, on no cycle
                flag[top], walks[top], size[top] = f, 1 if f else w, u if u <= bound else bound + 1
                continue
        stack.append(top)
        work = [(top, iter(out or ()))]
        while work:
            v, it = work[-1]
            for z in it:
                if not index[z]:
                    index[z] = low[z] = counter = counter + 1
                    stack.append(z)
                    work.append((z, iter(succ[z] or ())))
                    break
                if not size[z] and index[z] < low[v]:
                    low[v] = index[z]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] < index[v]:
                    continue
                if stack[-1] == v:
                    nodes = (stack.pop(),)
                else:
                    k = len(stack) - 1
                    while stack[k] != v:
                        k -= 1
                    nodes = stack[k:]
                    del stack[k:]
                if succ[v] is None:  # its self-loop makes it a component alone
                    walks[v], size[v] = 1, bound + 1
                    continue
                cyclic = len(nodes) > 1 or v in succ[v]
                f = w = u = 0
                for y in nodes:
                    inner = 0
                    for z in succ[y]:
                        if size[z]:
                            u += size[z]
                            w += walks[z]
                            if flag[z] > f:  # a dead exit's flag is 0
                                f = flag[z]
                        else:
                            inner += 1
                    if inner > 1:
                        f = 2
                if cyclic and w and not f:
                    f = 1  # a cycle with an exit to a live node
                w = 1 if cyclic or f else w
                u += len(nodes)
                if u > bound:
                    u = bound + 1
                for y in nodes:
                    flag[y] = f
                    walks[y] = w
                    size[y] = u
    return flag, walks, size


def _verdict(res: _Residuals, flag: bytearray, walks: list[int], y: int) -> Cardinality:
    if not walks[y]:
        raise PointNotInAttractorError(
            f"{res.value(y)} has no infinite digit path; it is not an attractor point"
        )
    if flag[y]:
        return Cardinality.continuum() if flag[y] == 2 else Cardinality.countable()
    return Cardinality.finite(walks[y])


def classify_cardinality(graph: ResidualGraph) -> Cardinality:
    """Classify the number of infinite paths from the root.

    Exhausted graphs are pruned of dead branches, then decided by the cycle
    structure reachable from the root: a cycle with a branch inside it forces
    a continuum of paths, a cycle that can exit toward another cycle gives
    countably many, and otherwise the paths are counted exactly.
    """
    if not graph.exhausted:
        return Cardinality.unknown(graph.limit_hit)
    return _verdict(graph.residuals, graph.flag, graph.walks, graph.root_id)


def classify_many(
    ifs: Ifs,
    values: Iterable[Fraction],
    max_nodes: int = DEFAULT_MAX_NODES,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> list[Cardinality]:
    """Classify a batch of points over one shared residual graph.

    Each verdict (or PointNotInAttractorError) is that of the same step on a
    batch of one, ``classify_cardinality(build_residual_graph(...))``.
    """
    res = _Residuals(ifs, [(x.numerator, x.denominator) for x in values], max_nodes, max_depth)
    verdicts = _classify(res)
    return [verdicts[root] for root in res.roots]


def _decide(res: _Residuals) -> tuple[bytearray, list[int], dict[int, tuple]]:
    """The ``flag`` and ``walks`` facts of every id, and the walks run, by root, for roots
    0..k-1, the ids interned so far. One pass expands all they reach while at most
    L = min(max_nodes, max_depth) ids per root are interned, and one Tarjan pass decides
    them. Only a root whose size bound and the whole table both exceed L walks (a root that
    reaches an unexpanded id has size L+1); a capped pass retakes the facts after the walks."""
    k = len(res.pairs)
    bound = min(res.max_nodes, res.max_depth)
    complete = res.expand(bound * k)
    # A capped single root reaches an unexpanded id, so its size is L+1 and it walks unasked.
    first = _facts(res.succ, bound, k) if k > 1 or complete else (None, None, [bound + 1])
    ran = {r: res.walk(r) for r in range(k) if first[2][r] > bound} if len(res.pairs) > bound else {}
    flag, walks, _ = first if complete else _facts(res.succ, bound, k)
    return flag, walks, ran


def _classify(res: _Residuals) -> list[Cardinality]:
    """The verdicts of roots 0..k-1, the ids interned so far, from one ``_decide``
    step: one object per distinct verdict, unknown for a root whose walk hit a limit."""
    k = len(res.pairs)
    flag, walks, ran = _decide(res)
    shared: dict[object, Cardinality] = {}
    verdicts = []
    for root in range(k):
        limit = ran[root][2] if root in ran else None
        key = limit or (flag[root], walks[root])
        if key not in shared:
            shared[key] = Cardinality.unknown(limit) if limit else _verdict(res, flag, walks, root)
        verdicts.append(shared[key])
    return verdicts


def enumerate_codings(
    ifs: Ifs,
    x: Fraction,
    depth: int,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_depth: int = DEFAULT_MAX_DEPTH,
    graph: ResidualGraph | None = None,
) -> list[tuple[int, ...]]:
    """All length-``depth`` prefixes of codings of x, lexicographically sorted.

    These are the digit paths from the root that survive dead-branch pruning.
    On a non-exhausted graph the enumeration is restricted to the explored
    region and may miss continuations through unexpanded nodes.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if graph is None:
        graph = build_residual_graph(ifs, x, max_nodes, max_depth)
    walks, res = graph.walks, graph.residuals
    frontier = graph.depth.keys() - graph.expanded if graph.limit_hit else ()

    words: list[tuple[int, ...]] = []
    stack: list[tuple[int, tuple[int, ...]]] = [(graph.root_id, ())]
    while stack:
        y, prefix = stack.pop()
        if len(prefix) == depth:
            words.append(prefix)
            continue
        if y in frontier:
            continue  # unexpanded frontier: continuation unknown
        for d, z in zip(reversed(res.labels[y]), reversed(res.succ[y])):
            if walks[z]:
                stack.append((z, prefix + (d,)))
    return sorted(words)


def _limit_hint(limit: str, max_nodes: int, max_depth: int) -> str:
    """``hit <limit>=<value>; raise it with --<flag>``, for an unknown verdict's limit."""
    value = max_depth if limit == "max_depth" else max_nodes
    return f"hit {limit}={value}; raise it with --{limit.replace('_', '-')}"


def make_witness(
    ifs: Ifs,
    report: ValidationReport,
    target: Cardinality,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> SymbolicPoint:
    """Construct a point with the ``target`` number of codings.

    The recipes splice overlap blocks in front of a verified single-coding
    tail; which recipe applies depends on whether an extreme neighbour pair
    overlaps. The result is classified before being returned, and a mismatch
    or a check cut short by a limit raises WitnessVerificationError, so a
    returned witness is always sound; a finite target whose preperiod has at
    least ``max_nodes`` digits raises it before the word is built. Impossible targets (countable, or a
    non power of two, when both extreme pairs are disjoint) raise
    UnreachableTargetError, and a target that is unknown or finite below 1
    raises ValueError.
    """
    finite = target.kind == "finite" and (target.count or 0) >= 1 and target.limit is None
    if not finite and target not in (Cardinality.countable(), Cardinality.continuum()):
        raise ValueError(f"bad witness target {target}: want finite(k >= 1), countable or continuum")
    if not report.member:
        raise ValueError("witness construction needs a validated member system")
    case = end_case(ifs, report)
    m = ifs.m
    tail: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    length = 0  # of the preperiod, where a finite target's can pass max_nodes

    if target.kind == "countable":
        if case.tag == "no-end-overlap":
            raise UnreachableTargetError(
                "no point has countably many codings when both extreme pairs are disjoint"
            )
        if case.left_overlaps:
            pre: tuple[int, ...] = (1,)
            per: tuple[int, ...] = (m,)
        else:
            pre, per = (m,), (1,)
    elif target.kind == "continuum":
        spec = report.overlaps[0]
        pre, per = (), (spec.index,) + (m,) * spec.u
    else:
        k = target.count
        if case.tag == "end-overlap":
            if case.right_overlaps and not case.left_overlaps:
                spec = report.overlap_at(m - 1)
                assert spec is not None
                tail = (2,), (1,)
                lead, block, s = (m,), (1,), spec.v * (k - 1)
            else:
                spec = report.overlap_at(1)
                assert spec is not None
                # When both ends overlap, anchor the tail at the smallest disjoint middle pair.
                first = min(report.disjoint_pairs) if case.right_overlaps else m - 1
                tail = (first,), (m,)
                lead, block, s = (1,), (m,), spec.u * (k - 1)
        else:
            if k & (k - 1):
                raise UnreachableTargetError(
                    f"only powers of two occur when both extreme pairs are disjoint, not {k}"
                )
            spec = report.overlaps[0]
            tail = (1,), (m,)
            lead, block, s = (), (spec.index,) + (m,) * spec.u, k.bit_length() - 1
        # The residuals along the witness's coding are distinct (one met twice would repeat a
        # block forever: infinitely many codings), so P preperiod digits take P + 1 nodes. A
        # word that cannot fit is not built: it is cut to its tail, whose check still comes first.
        length = len(lead) + len(block) * s + 1
        pre, per = (lead + block * s if length < max_nodes else ()) + tail[0], tail[1]

    point = symbolic_point(ifs, pre, per)
    # The witness word ends in the tail, so one batch classifies both over shared residuals.
    points = [point] if tail is None else [symbolic_point(ifs, *tail), point]
    *checked, verdict = classify_many(ifs, [p.value for p in points], max_nodes, max_depth)

    if checked and checked[0] != Cardinality.finite(1):
        cut = f": it {_limit_hint(checked[0].limit, max_nodes, max_depth)}" if checked[0].limit else ""
        raise WitnessVerificationError(
            f"tail {points[0]} was expected to have a unique coding, classifier says {checked[0]}{cut}"
        )
    if length >= max_nodes:
        raise WitnessVerificationError(
            f"the witness for {target} has a preperiod of {length} digits, each with its own "
            f"residual, so its classification would {_limit_hint('max_nodes', max_nodes, max_depth)}"
        )
    if verdict.kind == "unknown":
        raise WitnessVerificationError(
            f"witness {point.brief()} could not be verified within the limits: its classification "
            f"{_limit_hint(verdict.limit, max_nodes, max_depth)}"
        )
    if verdict != target:
        raise WitnessVerificationError(f"witness {point.brief()} is {verdict}, not the target {target}")
    return point
