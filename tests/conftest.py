"""Shared fixtures: the three hand-checked systems and a random member factory."""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction as F
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest

from overlapifs import (
    AffineMap,
    CoverViolationError,
    GraphDirectedSystem,
    Ifs,
    Interval,
    Partition,
    PartitionInvariantError,
    Vertex,
    validate,
)
from overlapifs.scc import strongly_connected_components

DATA = Path(__file__).parent / "data"


def quad_maps() -> list[AffineMap]:
    """Four maps at scale 1/5; overlaps at both extreme neighbour pairs.

    Hand-checked: hull [0,1], overlaps (1,2) and (3,4) with u=v=1, gap at
    (2,3), common composed maps x/25 + 4/25 and x/25 + 4/5.
    """
    return [
        AffineMap(F(1, 5), F(0)),
        AffineMap(F(1, 5), F(4, 25)),
        AffineMap(F(1, 5), F(16, 25)),
        AffineMap(F(1, 5), F(4, 5)),
    ]


def noend_maps() -> list[AffineMap]:
    """Four maps at scale 1/5 with the single overlap in the middle.

    Hand-checked: f2(f4(0)) = 4/25 + 3/10 = 23/50 = f3(0) and
    f3(f1(1)) = 1/25 + 23/50 = 1/2 = f2(1), so pair (2,3) has u = v = 1 and
    the common composed map x/25 + 23/50; pairs (1,2) and (3,4) are disjoint.
    """
    return [
        AffineMap(F(1, 5), F(0)),
        AffineMap(F(1, 5), F(3, 10)),
        AffineMap(F(1, 5), F(23, 50)),
        AffineMap(F(1, 5), F(4, 5)),
    ]


def uneven_maps() -> list[AffineMap]:
    """Three maps with ratios 1/9, 1/9, 1/3; the overlap needs u=2, v=1.

    Hand-checked: f1(f3(f3(x))) = x/81 + 8/81 = f2(f1(x)), overlap
    [8/81, 1/9], gap between pieces 2 and 3.
    """
    return [
        AffineMap(F(1, 9), F(0)),
        AffineMap(F(1, 9), F(8, 81)),
        AffineMap(F(1, 3), F(2, 3)),
    ]


def uneven_mirror_maps() -> list[AffineMap]:
    """``uneven`` under x -> 1 - x: f(x) = r x + b becomes r x + 1 - r - b.

    Hand-checked: pieces [0, 1/3], [64/81, 73/81] and [8/9, 1], so pair (1, 2)
    has a gap and only the right pair (2, 3) overlaps, in [8/9, 73/81].
    """
    return [AffineMap(f.ratio, 1 - f.ratio - f.offset) for f in reversed(uneven_maps())]


@pytest.fixture(scope="session")
def quad():
    return Ifs.from_maps(quad_maps())


@pytest.fixture(scope="session")
def quad_report(quad):
    return validate(quad)


@pytest.fixture(scope="session")
def noend():
    return Ifs.from_maps(noend_maps())


@pytest.fixture(scope="session")
def noend_report(noend):
    return validate(noend)


@pytest.fixture(scope="session")
def uneven():
    return Ifs.from_maps(uneven_maps())


@pytest.fixture(scope="session")
def uneven_report(uneven):
    return validate(uneven)


@pytest.fixture(scope="session")
def uneven_mirror():
    return Ifs.from_maps(uneven_mirror_maps())


@pytest.fixture(scope="session")
def data_dir():
    return DATA


def random_member(rng: random.Random) -> tuple[Ifs, list[int | None]]:
    """Random member built by the fixture recipe: equal ratio, mixed pattern.

    On the hull [0, 1] an overlapping neighbour pair with tail length w must
    advance the offset by exactly ratio - ratio**(w+1) (that realizes the
    composed-image identity for equal ratios), and a disjoint pair advances
    by ratio plus a positive gap. The offsets must end at 1 - ratio so the
    last map fixes 1, which leaves a positive budget to distribute over the
    gaps whenever ratio < 1/m. Returns the system plus the per-pair plan
    (w for an overlap, None for a gap).
    """
    m = rng.choice([3, 4, 5, 6])
    ratio = F(1, m + rng.randint(1, 4))
    while True:
        plan: list[int | None] = [rng.choice([None, 1, 1, 2, 3]) for _ in range(m - 1)]
        if any(w is None for w in plan) and any(w is not None for w in plan):
            break
    return equal_ratio_member(rng, ratio, plan), plan


def no_end_member(rng: random.Random, m: int) -> Ifs:
    """Equal-ratio no-end member by ``random_member``'s recipe, with m maps and
    ratio 1/(m + 4): the two extreme neighbour pairs leave gaps."""
    while True:
        plan = [None, *(rng.choice([None, 1, 1, 2, 3]) for _ in range(m - 3)), None]
        if any(w is not None for w in plan):
            return equal_ratio_member(rng, F(1, m + 4), plan)


def equal_ratio_member(rng: random.Random, ratio: F, plan: list[int | None]) -> Ifs:
    """The maps of ``random_member``'s recipe for one plan, the gaps drawn from rng."""
    overlap_total = sum(ratio - ratio ** (w + 1) for w in plan if w is not None)
    gap_pairs = [i for i, w in enumerate(plan) if w is None]
    budget = (1 - ratio) - overlap_total - len(gap_pairs) * ratio
    assert budget > 0
    weights = [F(rng.randint(1, 9)) for _ in gap_pairs]
    total_weight = sum(weights)
    gaps = dict(zip(gap_pairs, (budget * w / total_weight for w in weights)))
    offsets = [F(0)]
    for i, w in enumerate(plan):
        if w is None:
            offsets.append(offsets[-1] + ratio + gaps[i])
        else:
            offsets.append(offsets[-1] + ratio - ratio ** (w + 1))
    assert offsets[-1] == 1 - ratio
    return Ifs.from_maps([AffineMap(ratio, b) for b in offsets])


def random_unequal_member(rng: random.Random) -> Ifs:
    """Random member with unequal ratios: pair (1, 2) overlaps, every other pair has a gap.

    On the hull [0, 1], f1 = r1 x and fm = rm x + 1 - rm fix the ends, and
    f2 = rm^u x + r1 (1 - rm^u) satisfies f1 fm^u = f2 f1, so f1 and f2
    overlap in [r1 (1 - rm^u), r1] with tails u and 1. The middle maps fill
    the room between f2's image and fm's with positive gaps.
    """
    while True:
        m = rng.choice([3, 4, 5])
        r1 = F(rng.randint(1, 2), rng.randint(5, 9))
        rm = F(rng.randint(1, 2), rng.randint(5, 9))
        u = rng.randint(1, 3)
        middle = [F(1, rng.randint(m + 3, 3 * m + 6)) for _ in range(m - 3)]
        start = r1 + rm**u * (1 - r1)
        budget = (1 - rm) - start - sum(middle)
        if budget > 0:
            break
    weights = [F(rng.randint(1, 9)) for _ in range(m - 2)]
    gaps = [budget * w / sum(weights) for w in weights]
    maps = [AffineMap(r1, F(0)), AffineMap(rm**u, r1 * (1 - rm**u))]
    left = start
    for ratio, gap in zip(middle, gaps):
        maps.append(AffineMap(ratio, left + gap))
        left += gap + ratio
    maps.append(AffineMap(rm, 1 - rm))
    assert left + gaps[-1] == 1 - rm
    return Ifs.from_maps(maps)


def mpmath_dimension(counts, ratios, digits: int = 40):
    """Exponent s where rho(diag(r_p**s) counts) = 1, to ``digits`` digits.

    A float bisection on the numpy spectral radius gives a start; mpmath's
    secant method on det(I - A(s)) at ``digits + 10`` digits refines it. The
    numpy radius at the refined root must be one, so the determinant root is
    the crossing of the largest eigenvalue and not of another one.
    """
    import mpmath
    import numpy

    n = len(counts)

    def radius(s: float) -> float:
        weighted = [[float(r) ** s * c for c in row] for r, row in zip(ratios, counts)]
        return max(abs(numpy.linalg.eigvals(numpy.array(weighted))))

    lo, hi = 0.0, 1.0
    while radius(hi) >= 1:
        lo, hi = hi, 2 * hi
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if radius(mid) >= 1 else (lo, mid)
    with mpmath.workdps(digits + 10):
        logs = [mpmath.log(mpmath.mpf(r.numerator) / r.denominator) for r in ratios]

        def det(s):
            w = [mpmath.exp(s * lg) for lg in logs]
            return mpmath.det(
                mpmath.matrix(
                    [[(p == q) - w[p] * counts[p][q] for q in range(n)] for p in range(n)]
                )
            )

        root = mpmath.findroot(det, (mpmath.mpf(lo) - 1e-12, mpmath.mpf(hi) + 1e-12), solver="secant")
        assert abs(radius(float(root)) - 1) < 1e-9
        return +root


def row_merged(counts, ratios):
    """``(counts, ratios)`` with the vertices of equal ratio and equal row merged into one,
    summing their columns, again until no two are equal. Rows only, so the weighted
    matrix keeps its nonzero spectrum at every exponent: a reference for large graphs."""
    while True:
        keys = list(zip(ratios, map(tuple, counts)))
        classes = list(dict.fromkeys(keys))
        if len(classes) == len(keys):
            return counts, ratios
        of = [classes.index(key) for key in keys]
        counts = [[sum(x for x, k in zip(row, of) if k == c) for c in range(len(classes))] for _, row in classes]
        ratios = [r for r, _ in classes]


def fold_word(ifs: Ifs, word) -> tuple[F, F]:
    """A word's map x -> ratio*x + offset as ``(ratio, offset)``, the first digit's
    map applied last, folded in Fractions one digit at a time ((1, 0) when empty):
    the reference for ``Ifs.word_triple``, ``Ifs.compose_word`` and ``evaluate``,
    sharing none of their integer arithmetic."""
    ratio, offset = F(1), F(0)
    for d in word:
        f = ifs.map(d)
        ratio, offset = ratio * f.ratio, ratio * f.offset + offset
    return ratio, offset


def fold_value(ifs: Ifs, preperiod, period) -> F:
    """The value of an eventually periodic word by ``fold_word``: the preperiod's
    map at the fixed point offset / (1 - ratio) of the period's."""
    (r, b), (p, q) = fold_word(ifs, period), fold_word(ifs, preperiod)
    return p * b / (1 - r) + q


def sweep_words(ifs: Ifs, max_preperiod: int = 4, max_period: int = 3, cap: int = 5000) -> dict:
    """The points of ``dichotomy_sweep``, one word at a time in Fractions.

    Maps each distinct value to its first word (preperiod, period), in the
    sweep's order and up to its cap (none at 0; a negative cap raises
    ValueError): the slow reference for the sweep's batch of values. Each
    period's fixed point and each preperiod's composed map are taken once,
    with ``fold_word``, and a word's value is its preperiod's map at its
    period's fixed point, as ``fold_value`` gives it.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    digits = range(1, ifs.m + 1)
    pres = [w for n in range(max_preperiod + 1) for w in product(digits, repeat=n)]
    pers = [w for n in range(1, max_period + 1) for w in product(digits, repeat=n)]
    fixed = [(per, b / (1 - r)) for per in pers for r, b in [fold_word(ifs, per)]]
    words: dict = {}
    for pre in pres:
        p, q = fold_word(ifs, pre)
        for per, x in fixed:
            if len(words) >= cap:
                return words
            words.setdefault(p * x + q, (pre, per))
    return words


def strongly_connected(gds) -> bool:
    """True when every vertex of a graph-directed system reaches every vertex (one counts)."""
    successors = [[q for q, c in enumerate(row) if c] for row in gds.counts]
    return gds.size > 0 and len(strongly_connected_components(successors)) == 1


def reference_facts(succ, bound: int):
    """``codings._facts`` in two passes: the generic Tarjan lists the
    components, callees first, and a second loop over every edge reads the
    facts of each component from its exits' facts. The slow reference for
    the fused pass."""
    graph = [(y,) if out is None else out for y, out in enumerate(succ)]
    comp = [-1] * len(graph)
    flag = bytearray(len(graph))
    walks = [0] * len(graph)
    size = [0] * len(graph)
    for c, nodes in enumerate(strongly_connected_components(graph)):
        for y in nodes:
            comp[y] = c
        cyclic = len(nodes) > 1 or nodes[0] in graph[nodes[0]]
        f = w = 0
        u = len(nodes) if succ[nodes[0]] is not None else bound + 1
        for y in nodes:
            inner = 0
            for z in graph[y]:
                if comp[z] == c:
                    inner += 1
                else:
                    u += size[z]
                    w += walks[z]
                    if walks[z]:
                        f = max(f, cyclic, flag[z])
            if inner > 1:
                f = 2
        u = min(u, bound + 1)
        for y in nodes:
            flag[y] = f
            walks[y] = 1 if cyclic or f else w
            size[y] = u
    return flag, walks, size


def contains(iv: Interval, x: F) -> bool:
    """Closed membership of x in iv."""
    return iv.lo <= x <= iv.hi


def interior_overlaps(one: Interval, other: Interval) -> bool:
    """True when the open interiors of two closed intervals intersect."""
    return max(one.lo, other.lo) < min(one.hi, other.hi)


def _merged(intervals) -> list[Interval]:
    """Union of closed intervals as a sorted list of maximal pieces."""
    out: list[Interval] = []
    for iv in sorted(intervals, key=lambda iv: (iv.lo, iv.hi)):
        if out and iv.lo <= out[-1].hi:
            if iv.hi > out[-1].hi:
                out[-1] = Interval(out[-1].lo, iv.hi)
        else:
            out.append(iv)
    return out


def reference_partition_graph(ifs: Ifs, report) -> tuple[Partition, GraphDirectedSystem]:
    """``build_partition`` and ``build_graph`` by exact ``Fraction`` comparisons,
    inverses and hashes: the slow reference for the integer cut-point index."""
    a, b = ifs.hull.lo, ifs.hull.hi
    first, last = ifs.maps[0], ifs.maps[-1]
    points: set[F] = set()
    for d in range(1, ifs.m + 1):
        points.update((ifs.piece(d).lo, ifs.piece(d).hi))
    t = b
    for _ in range(report.v_max):
        t = first(t)
        points.add(t)
    t = a
    for _ in range(report.u_max):
        t = last(t)
        points.add(t)
    ordered = tuple(sorted(points))
    expected = 2 * ifs.m + report.u_max + report.v_max - 2
    if len(ordered) != expected:
        raise PartitionInvariantError(f"expected {expected} cut points, deduplication left {len(ordered)}")

    cells: list[tuple[int, int]] = []
    for i in range(1, len(ordered)):
        cell = Interval(ordered[i - 1], ordered[i])
        for d in range(1, ifs.m + 1):
            if ifs.piece(d).contains_interval(cell):
                cells.append((i, d))
                break
    pair_of = {Interval(ordered[i - 1], ordered[i]): i for i, _ in cells}
    switches = tuple(pair_of.get(spec.overlap) for spec in report.overlaps)
    if None in switches:
        raise PartitionInvariantError("an overlap interval is not one admissible cell")
    part = Partition(points=ordered, cells=tuple(cells), switches=switches)

    vertices = tuple(
        Vertex(pair_index=i, cell=part.pair_interval(i), digit=d, ratio=ifs.map(d).ratio)
        for i, d in part.cells
    )
    cell_union = _merged([v.cell for v in vertices])
    piece_union = _merged([ifs.piece(d) for d in range(1, ifs.m + 1)])
    if cell_union != piece_union:
        raise CoverViolationError(
            "admissible cells do not cover the union of hull images: "
            f"{[str(iv) for iv in cell_union]} vs {[str(iv) for iv in piece_union]}"
        )
    for i in sorted(set(range(1, part.gamma)) - set(pair_of.values())):
        gap = part.pair_interval(i)
        for d in range(1, ifs.m + 1):
            if interior_overlaps(ifs.piece(d), gap):
                raise CoverViolationError(f"gap {gap} meets the image of map {d} beyond endpoints")
    rows: list[tuple[int, ...]] = []
    for v in vertices:
        g = ifs.map(v.digit)
        window = Interval(g.invert(v.cell.lo), g.invert(v.cell.hi))
        if window.lo not in points or window.hi not in points:
            raise PartitionInvariantError(
                f"the inverse image of cell {v.cell} under map {v.digit} does not end at cut points"
            )
        rows.append(tuple(1 if window.contains_interval(w.cell) else 0 for w in vertices))
    return part, GraphDirectedSystem(vertices=vertices, counts=tuple(rows))


def member_instances(seed: int, count: int):
    rng = random.Random(seed)
    return [random_member(rng) for _ in range(count)]


def admissible_digits(ifs: Ifs, x: F) -> list[int]:
    """All digits whose Fraction hull image contains x (closed membership),
    ascending: the reference for the walk's integer hull test."""
    return [d for d in range(1, ifs.m + 1) if contains(ifs.piece(d), x)]


def reference_residual_graph(ifs: Ifs, x: F, max_nodes: int, max_depth: int) -> SimpleNamespace:
    """Fraction-keyed breadth-first closure of x: the slow reference for
    ``build_residual_graph``.

    Each node popped below ``max_depth`` gets its digit-labelled inverse
    images; a node whose next new successor would pass ``max_nodes`` is left
    unexpanded, as are the nodes at ``max_depth``. Returns ``root``,
    ``adjacency`` (in expansion order), ``unexpanded``, ``exhausted``,
    ``limit_hit`` and each node's ``depth``.
    """
    adjacency: dict = {}
    depth = {x: 0}
    queue = deque([x])
    limit_hit = None
    while queue:
        y = queue.popleft()
        if depth[y] >= max_depth:
            limit_hit = "max_depth"
            continue
        out = {}
        for d in admissible_digits(ifs, y):
            z = ifs.map(d).invert(y)
            if z not in depth:
                if len(depth) >= max_nodes:
                    limit_hit = "max_nodes"
                    break
                depth[z] = depth[y] + 1
                queue.append(z)
            out[d] = z
        else:
            adjacency[y] = out
    unexpanded = frozenset(depth) - frozenset(adjacency)
    return SimpleNamespace(
        root=x,
        adjacency=adjacency,
        unexpanded=unexpanded,
        exhausted=not unexpanded,
        limit_hit=limit_hit if unexpanded else None,
        depth=depth,
    )


def reference_codings(graph, depth: int) -> list[tuple[int, ...]]:
    """Length-``depth`` digit paths from the root of a Fraction-keyed graph, sorted.

    Iterated dead-end removal never removes an unexpanded node (its onward
    edges are unknown), and a path stops at an unexpanded node, so on a
    limited graph only the explored region contributes.
    """
    adjacency, frontier = graph.adjacency, graph.unexpanded
    alive = set(adjacency) | frontier
    while True:
        dead = {y for y in alive - frontier if not any(z in alive for z in adjacency[y].values())}
        if not dead:
            break
        alive -= dead
    words = []

    def extend(y, prefix):
        if len(prefix) == depth:
            words.append(prefix)
        elif y in adjacency:
            for d, z in adjacency[y].items():
                if z in alive:
                    extend(z, prefix + (d,))

    if graph.root in alive:
        extend(graph.root, ())
    return sorted(words)


def prefix_count_series(graph, depth: int) -> list[int]:
    """Brute-force oracle: number of coding prefixes of each length 0..depth.

    Counts digit paths in the dead-branch-pruned residual graph by direct
    dynamic programming over path lengths, independently of any component
    analysis. On the pruned graph every path extends, so the series is
    nondecreasing; a stabilized series pins a finite coding count, unbounded
    growth means infinitely many codings, and exponential growth (at least
    2**(n // node count)) signals a continuum.
    """
    assert graph.exhausted
    adjacency = graph.adjacency
    alive = set(adjacency)
    while True:
        dead = {y for y in alive if not any(z in alive for z in adjacency[y].values())}
        if not dead:
            break
        alive -= dead
    if graph.root not in alive:
        return [0] * (depth + 1)
    counts = {y: 1 for y in alive}
    series = [1]
    for _ in range(depth):
        counts = {
            y: sum(counts[z] for z in adjacency[y].values() if z in alive) for y in alive
        }
        series.append(counts[graph.root])
    return series


def oracle_classify(graph, depth: int | None = None):
    """Independent three-way verdict from the prefix-count series.

    Returns ("finite", k), ("countable", None) or ("continuum", None). The
    default depth grows with the graph, max(60, 4 * nodes + 8): at a fixed
    depth of 60 a finite point whose graph has more than about 28 nodes has
    not stabilised yet and reads as countable.
    """
    nodes = max(1, len(graph.adjacency))
    if depth is None:
        depth = max(60, 4 * nodes + 8)
    series = prefix_count_series(graph, depth)
    window = min(depth - 1, nodes + 3)
    if series[depth] == series[depth - window]:
        return ("finite", series[depth])
    if series[depth] >= 2 ** (depth // nodes) and series[depth] >= 4 * series[depth // 2]:
        return ("continuum", None)
    return ("countable", None)
