"""Coverage partition, the induced edge-labelled digraph, and its dimension.

The hull images cut the attractor along finitely many exact points into
closed cells; each cell is carried onto a window of cells by one inverse
map, so the cells obey a graph-directed structure. The attractor dimension
is then the unique exponent where the ratio-weighted spectral radius of the
edge matrix crosses one. Removing the cells where two neighbour images
exchange codings gives the subsystem bounding the single-coding set.
"""

from __future__ import annotations

import functools
import math
import operator
from decimal import Context
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from .exact import Interval, _Value, format_rational
from .system import DEFAULT_TOL, Ifs, InternalError, ValidationReport

__all__ = [
    "CoverViolationError",
    "DimensionResult",
    "EmptyGraphError",
    "EmptyReducedSystemError",
    "GraphDirectedSystem",
    "Partition",
    "PartitionInvariantError",
    "Vertex",
    "build_graph",
    "build_partition",
    "reduced_system",
    "solve_dimension",
    "spectral_radius",
    "to_dot",
]

# Digits of r**s kept beyond the tolerance by the first exact test.
GUARD_DIGITS = 4


class PartitionInvariantError(InternalError):
    """The cut-point set misses its expected size or preimage closure."""


class CoverViolationError(InternalError):
    """The admissible cells fail to tile the union of hull images."""


class EmptyGraphError(InternalError):
    """The graph-directed system has no vertex or no cycle: no infinite path, an empty attractor."""


class EmptyReducedSystemError(EmptyGraphError):
    """Removing the switch cells deleted every vertex."""


class Partition(_Value):
    """Sorted cut points with the admissible consecutive pairs.

    Pair i (1-based) is the interval [points[i-1], points[i]]. ``cells`` lists
    each admissible pair i as (i, d), d the smallest digit whose hull image
    contains the whole pair; ``switches`` lists those that are neighbour overlaps.
    """

    points: tuple[Fraction, ...]
    cells: tuple[tuple[int, int], ...]
    switches: tuple[int, ...]

    @property
    def gamma(self) -> int:
        return len(self.points)

    def pair_interval(self, i: int) -> Interval:
        return Interval(self.points[i - 1], self.points[i])


def _cut_index(points: Collection[Fraction]) -> tuple[int, dict[int, int]]:
    """``(den, index)``: the cut points, none given twice, as numerators over their
    least common denominator, each mapped to its index in increasing order."""
    den = math.lcm(*(p.denominator for p in points))
    scaled = sorted(p.numerator * (den // p.denominator) for p in points)
    return den, {n: i for i, n in enumerate(scaled)}


def _at(index: dict[int, int], num: int, div: int) -> int | None:
    """The index of the cut point num / div over the index's denominator, None when it is none."""
    n, r = divmod(num, div)
    return None if r else index.get(n)


def _spans(intervals: Iterable[Interval], den: int, index: dict[int, int]) -> list[tuple]:
    """Each interval as the indices of its two ends, None for an end that is no cut point."""
    ends = [_at(index, e.numerator * den, e.denominator) for iv in intervals for e in (iv.lo, iv.hi)]
    return list(zip(ends[::2], ends[1::2]))


def _cells(spans: Sequence[tuple[int, int]], gamma: int) -> tuple[tuple[int, int], ...]:
    """The one cell rule: each pair i of ``gamma`` cut points that lies in a hull image, as
    (i, d) with d the smallest digit whose image's index span (lo, hi] holds i."""
    covering = ((i, [d for d, (lo, hi) in enumerate(spans, 1) if lo < i <= hi]) for i in range(1, gamma))
    return tuple((i, digits[0]) for i, digits in covering if digits)


def build_partition(ifs: Ifs, report: ValidationReport) -> Partition:
    """Cut points of a validated member system.

    The set consists of all hull-image endpoints plus the two overlap tails:
    the forward orbit of the right hull endpoint under the first map (up to
    the maximal left tail length) and of the left hull endpoint under the
    last map (up to the maximal right tail length). The expected count and
    the switch cells are hard checks. They run on the cut points' integer
    index (``_cut_index``): ``_cells`` puts pair i in the first hull image d
    with lo_d < i <= hi_d, the indices of its ends. ``build_graph`` checks that
    each cell's covering inverse map takes it onto a window between cut points.
    """
    if not report.member:
        raise ValueError("partition is only defined for members")
    first, last = ifs.maps[0], ifs.maps[-1]

    points = {end for piece in ifs.pieces for end in (piece.lo, piece.hi)}
    t = ifs.hull.hi
    for _ in range(report.v_max):
        t = first(t)
        points.add(t)
    t = ifs.hull.lo
    for _ in range(report.u_max):
        t = last(t)
        points.add(t)

    den, index = _cut_index(points)
    expected = 2 * ifs.m + report.u_max + report.v_max - 2
    if len(index) != expected:
        raise PartitionInvariantError(
            f"expected {expected} cut points, deduplication left {len(index)}"
        )
    ordered = tuple(sorted(points, key=lambda p: p.numerator * (den // p.denominator)))
    cells = _cells(_spans(ifs.pieces, den, index), len(ordered))
    digits = dict(cells)
    overlaps = _spans((spec.overlap for spec in report.overlaps), den, index)
    switches = tuple(hi if hi in digits and lo == hi - 1 else None for lo, hi in overlaps)
    if None in switches:
        raise PartitionInvariantError("an overlap interval is not one admissible cell")
    return Partition(ordered, cells, switches)


class Vertex(_Value):
    """One admissible cell together with the map that expands it."""

    pair_index: int
    cell: Interval
    digit: int
    ratio: Fraction


class GraphDirectedSystem(_Value):
    """Vertices (admissible cells) and 0/1 edge counts between them; the exact
    tests of ``solve_dimension`` run on ``_lumped``'s merge, whose counts may exceed 1.

    counts[p][q] = 1 when p's covering map takes p's cell back onto a window whose
    ends are the cut points j and k, with j < i_q <= k for the pair index i_q of q.
    """

    vertices: tuple[Vertex, ...]
    counts: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


def build_graph(ifs: Ifs, part: Partition) -> GraphDirectedSystem:
    """Edge structure over the admissible cells.

    Each vertex p gets an edge to exactly the admissible cells contained in
    the inverse image of p's cell under p's covering map. Two structural
    facts are verified along the way: the cells, digits included, are those
    of ``_cells``, the partition's one rule, and the cut points are closed under each
    cell's covering inverse map (checked only here). Both compare index spans
    of the cut points (``_cut_index``): the cell of pair i maps back onto the
    window between cut points j and k, so row p has a 1 for each cell i_q
    with j < i_q <= k, and a hull image or window off the cut points fails.
    """
    den, index = _cut_index(part.points)
    spans = _spans(ifs.pieces, den, index)
    for d, (lo, hi) in enumerate(spans, 1):
        if lo is None or hi is None:
            raise CoverViolationError(
                "admissible cells do not cover the union of hull images: "
                f"the image {ifs.piece(d)} of map {d} does not end at cut points"
            )
    if part.cells != _cells(spans, part.gamma):
        raise CoverViolationError(
            "the cells are not the pairs inside a hull image, each with the smallest digit covering it"
        )

    nums, windows = list(index), []
    for i, d in part.cells:
        a, b, c = ifs.integer_maps[d - 1]
        windows.append([_at(index, c * nums[end] - b * den, a) for end in (i - 1, i)])
        if None in windows[-1]:
            raise PartitionInvariantError(
                f"the inverse image of cell {part.pair_interval(i)} under map {d} "
                "does not end at cut points"
            )
    vertices = tuple(Vertex(i, part.pair_interval(i), d, ifs.map(d).ratio) for i, d in part.cells)
    counts = tuple(tuple(1 if j < i <= k else 0 for i, _ in part.cells) for j, k in windows)
    return GraphDirectedSystem(vertices, counts)


def check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _minor(matrix: Sequence[Sequence[int]], bound: int, divide=operator.floordiv, weights=None):
    """The first leading principal minor of B = bound*I - diag(weights)*matrix that is not
    positive, else the last; row weights (1 when None) are applied as B's one copy is built.

    B is a Z-matrix, and a Z-matrix is a nonsingular M-matrix (which here
    means rho(diag(weights)*matrix) < bound) exactly when every leading
    principal minor is positive. Fraction-free (Bareiss) elimination yields
    those minors as its successive pivots.
    """
    n = len(matrix)
    rows = zip(weights or [1] * n, matrix)
    a = [[(bound if p == q else 0) - w * x for q, x in enumerate(row)] for p, (w, row) in enumerate(rows)]
    previous = 1
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            return pivot
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = divide(row_i[j] * pivot - factor * row_k[j], previous)
        previous = pivot
    return previous


def _below(matrix: Sequence[Sequence[int]], bound: int, divide=operator.floordiv, weights=None) -> bool:
    """Exactly whether rho(diag(weights)*matrix) < bound, for a nonnegative integer matrix and
    weights (all 1 when None; see ``_minor``)."""
    return _minor(matrix, bound, divide, weights) > 0


def spectral_radius(matrix, tol: float = 1e-9) -> float:
    """Spectral radius of a nonnegative square matrix, from below within tol.

    Entries are taken as exact rationals. Bisection on c over the exact test
    rho < c (see ``_below``) starts from [0, 2**k] with 2**k above every row
    sum; the result is the lower end of a bracket of width at most ``tol``,
    so integer radii come out exactly.
    """
    check_tol(tol)
    entries = [[Fraction(x) for x in row] for row in matrix]
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise ValueError(f"need a square matrix, got row lengths {[len(row) for row in entries]}")
    if any(x < 0 for row in entries for x in row):
        raise ValueError("matrix must be nonnegative")
    if n == 0:
        return 0.0
    den = math.lcm(*(x.denominator for row in entries for x in row))
    scaled = [[int(x * den) for x in row] for row in entries]
    lo, hi = Fraction(0), Fraction(1)
    while hi <= max(sum(row) for row in entries):
        hi *= 2
    while hi - lo > Fraction(tol):
        c = (lo + hi) / 2
        if _below([[x * c.denominator for x in row] for row in scaled], den * c.numerator):
            hi = c
        else:
            lo = c
    return float(lo)


class DimensionResult(_Value):
    """Dimension value with its certified rational bracket.

    The bracket, not the float, is the contract: the exact test proves the
    weighted spectral radius >= 1 at the lower end and < 1 at the upper end.
    It is the cell of ``solve_dimension`` that holds s*, a function of the
    system and the tolerance alone. ``value`` is its midpoint, derived, not
    stored; ``iterations`` counts the exact tests, ``method`` names the route.
    """

    bracket: tuple[Fraction, Fraction]
    iterations: int
    method = "bisection"

    @property
    def value(self) -> float:
        return float(sum(self.bracket) / 2)


@functools.lru_cache(maxsize=64)
def _log(p: int, q: int, prec: int):
    """ln(p/q) to ``prec`` digits, correctly rounded; computed once per ratio and precision."""
    ctx = Context(prec=prec)
    return ctx.ln(ctx.divide(p, q))


def _power_bounds(ratios: Sequence[tuple[int, int]], digits: int, shift: int):
    """Return ``bounds(n)``: integers lo <= r**s * 10**digits <= hi per ratio r, given as its
    pair (p, q), at s = n / 2**shift.

    ``decimal`` computes exp(s * ln r) with 10 spare digits, each step
    correctly rounded, so the truncated result widened by one unit below
    and two above encloses r**s. ln r comes from ``_log``'s memo.
    """
    ctx = Context(prec=digits + 10)
    logs = [_log(p, q, ctx.prec) for p, q in ratios]

    def bounds(n: int) -> tuple[list[int], list[int]]:
        t = ctx.divide(n, 1 << shift)
        approx = [int(ctx.scaleb(ctx.exp(ctx.multiply(t, lg)), digits)) for lg in logs]
        return [max(0, v - 1) for v in approx], [v + 2 for v in approx]

    return bounds


def _exact_powers(ratios: Sequence[tuple[int, int]], n: int, shift: int):
    """``(weights, den)`` with r**s = weight / den for each ratio r = p/q at s = n / 2**shift
    when every r**s is rational, else None. Every tested end has n odd when shift > 0, so s
    is in lowest terms, and r**s is rational exactly when p and q are 2**shift-th powers."""
    roots = [x for pair in ratios for x in pair]
    for _ in range(shift):
        squares, roots = roots, [math.isqrt(x) for x in roots]
        if any(x * x != y for x, y in zip(roots, squares)):
            return None
    nums, dens = [a**n for a in roots[::2]], [b**n for b in roots[1::2]]
    den = math.lcm(*dens)
    return [a * (den // b) for a, b in zip(nums, dens)], den


def _float_guess(gds: GraphDirectedSystem, lo: float, hi: float, tol: float) -> float:
    """Illinois regula falsi on s in floats: proposes s*, proves nothing.

    f(s), ``_minor`` of the counts weighted by r**s inside its elimination, is
    det(I - diag(r**s)·counts) for s > s* and a minor that is not positive otherwise;
    [lo, hi] keeps f(lo) <= 0 < f(hi).
    Secant steps start once both ends have a value, an end kept twice in a row has
    its value halved, and a clamp tol/8 inside makes a step next to s* cross it next.
    """
    ratios = [float(v.ratio) for v in gds.vertices]
    f_lo, f_hi, moved = math.nan, math.nan, 0
    while hi - lo > tol / 4 and lo < (mid := (lo + hi) / 2) < hi:
        s = lo + f_lo * (lo - hi) / (f_hi - f_lo) if f_lo <= 0 < f_hi else mid
        s = min(max(s, lo + tol / 8), hi - tol / 8)
        s = s if lo < s < hi else mid  # tol/8 is below float resolution
        f = _minor(gds.counts, 1.0, operator.truediv, [r**s for r in ratios])
        if f > 0:
            f_lo /= 2 if moved > 0 else 1
            hi, f_hi, moved = s, f, 1
        else:
            f_hi /= 2 if moved < 0 else 1
            lo, f_lo, moved = s, f, -1
    return (lo + hi) / 2


def _lumped(gds: GraphDirectedSystem) -> GraphDirectedSystem:
    """``gds`` with each class of vertices of equal ratio (as an integer pair) and equal row,
    then equal column, merged into its first vertex, until neither merges two (``uneven``'s
    five cells become three); ``gds`` itself when none do. With L the class indicator, R the
    class rows and w their weights r**s, the weighted matrix L·diag(w)·R has the nonzero
    spectrum of diag(w)·R·L, the merge's, at every s. A column merge is this on Cᵀ, and
    diag(w)·Cᵀ is similar to (diag(w)·C)ᵀ: the result may come back transposed."""
    ratio = [v.ratio.as_integer_ratio() for v in gds.vertices]
    keep, counts, idle = range(gds.size), gds.counts, 0
    while idle < 2:
        classes: dict[tuple, int] = {}
        of = [classes.setdefault((ratio[p], row), len(classes)) for p, row in zip(keep, counts)]
        if len(classes) == len(keep):
            idle, counts = idle + 1, tuple(zip(*counts))
            continue
        idle, merged = 0, [[0] * len(classes) for _ in classes]  # R·L, transposed
        for p, (_, row) in enumerate(classes):
            for x, c in zip(row, of):
                merged[c][p] += x
        keep, counts = [keep[of.index(c)] for c in range(len(classes))], tuple(map(tuple, merged))
    return gds if len(keep) == gds.size else GraphDirectedSystem(tuple(gds.vertices[p] for p in keep), counts)


def solve_dimension(gds: GraphDirectedSystem, tol: float = DEFAULT_TOL) -> DimensionResult:
    """Bracket the exponent s* where the weighted spectral radius equals one.

    Row p of the edge matrix is weighted by r_p**s. The radius decreases
    strictly in s, from at least one at s = 0 to below one at the power of two
    h where every weighted row sum is. The bracket is the cell [(k - 1/2)·w,
    (k + 1/2)·w] that holds s*, w the largest power of two not above ``tol``,
    cut to [0, h]. The exact test encloses each r**s between integers over
    10**P, P ``GUARD_DIGITS`` beyond ``tol`` and doubled while undecided, as
    ``_minor``'s row weights: a lower enclosure not below one proves s <= s*, an
    upper one below one proves s > s*. A test neither decides (s* on a cell end)
    is decided exactly when every r**s is rational (``_exact_powers``). Ratios
    are keyed by their integer pairs (p, q), and their logs come from ``_log``'s
    memo. It tries the end nearest the float secant search's s*, its neighbour,
    then steps doubling (from twice the guess's float spacing) while the side
    repeats, then bisects the end index; a test usually takes one elimination.
    Both searches run on ``_lumped(gds)``, which has the same radius at every
    s; h and the float start come from the rows of gds, which it may not keep.
    A graph with no cycle (no vertex or no edge included) has no infinite path: it is refused.
    """
    check_tol(tol)
    lumped = _lumped(gds)
    counts = lumped.counts
    if _below(counts, 1):
        raise EmptyGraphError("graph-directed system has no cycle, so its attractor is empty")
    pairs = [v.ratio.as_integer_ratio() for v in lumped.vertices]
    ratios = list(dict.fromkeys(pairs))
    slots = [ratios.index(pair) for pair in pairs]
    h, rows = 1, [(*v.ratio.as_integer_ratio(), sum(row)) for v, row in zip(gds.vertices, gds.counts)]
    while any(p**h * total >= q**h for p, q, total in rows):
        h *= 2
    # End j is (2j - 1)·half over 2**shift, half = w/2: end 0 lies below 0 and end hi not below h.
    half, shift = 1 << max(0, e := math.frexp(tol)[1] - 2), max(0, -e)  # w/2 = 2**e
    lo, hi = 0, -(-((h << shift) + half) // (2 * half))
    first = digits = GUARD_DIGITS + max(0, math.ceil(-math.log10(tol)))
    bounds, steps = _power_bounds(ratios, digits, shift), 1

    # s* lies between the least and the largest s where a weighted row sum is one, give or take rounding.
    cw = [math.log(t) / (math.log(q) - math.log(p)) if t else 0.0 for p, q, t in rows]
    start = (max(0.0, min(cw) - tol), min(float(h), max(cw) + tol))
    guess = g if 0 <= (g := _float_guess(lumped, *start, tol)) <= h else 0.0
    (gn, gd), (un, ud) = guess.as_integer_ratio(), math.ulp(guess).as_integer_ratio()

    def at_or_below(n: int) -> bool:
        """Whether s = n / 2**shift is proved at or below s*; False when it is proved above.
        The enclosure (lower, upper) proving the side the guess predicts runs first."""
        nonlocal steps, digits, bounds
        steps += 1
        enclosures = bounds(n)
        for up in (guessed := n * gd <= gn << shift, not guessed):
            if _below(counts, 10**digits, weights=[enclosures[not up][k] for k in slots]) != up:
                return up
        if exact := _exact_powers(ratios, n, shift):
            weights, den = exact
            return not _below(counts, den, weights=[weights[k] for k in slots])
        if digits >= 64 * first:
            raise InternalError(f"no enclosure to {digits} digits decides the dimension test")
        digits, bounds = 2 * digits, _power_bounds(ratios, 2 * digits, shift)
        return at_or_below(n)

    j = (gn << shift) // gd // (2 * half) + 1
    spread, step, rising = (un << shift) // (ud * half), 1, None
    while hi - lo > 1:
        j = min(max(j, lo + 1), hi - 1)
        up = at_or_below((2 * j - 1) * half)
        lo, hi = (j, hi) if up else (lo, j)
        if step and rising in (None, up):
            j, step, rising = j + (step if up else -step), max(2 * step, spread), up
        else:
            j, step = (lo + hi) // 2, 0
    ends = (max(0, (2 * lo - 1) * half), min(h << shift, (2 * hi - 1) * half))
    return DimensionResult(tuple(Fraction(e, 1 << shift) for e in ends), steps)


def reduced_system(ifs: Ifs, part: Partition, gds: GraphDirectedSystem) -> GraphDirectedSystem:
    """Drop the switch cells (the overlaps themselves) and induced edges.

    Every overlapping neighbour pair contributes exactly one cell equal to
    the overlap interval (``part.switches``); removing those cells leaves the
    subsystem whose attractor contains every single-coding point.
    """
    keep = [p for p, vertex in enumerate(gds.vertices) if vertex.pair_index not in part.switches]
    if not keep:
        raise EmptyReducedSystemError("removing the switch cells deleted every vertex")

    counts = tuple(tuple(gds.counts[p][q] for q in keep) for p in keep)
    return GraphDirectedSystem(tuple(gds.vertices[p] for p in keep), counts)


def to_dot(gds: GraphDirectedSystem) -> str:
    """Graphviz rendering: cells labelled by exact endpoints, edges by digit."""
    lines = ["digraph coverage {", "  rankdir=LR;"]
    for p, v in enumerate(gds.vertices):
        label = f"{format_rational(v.cell.lo)}..{format_rational(v.cell.hi)}"
        lines.append(f'  v{p} [label="{label}"];')
    for p, v in enumerate(gds.vertices):
        for q in range(gds.size):
            if gds.counts[p][q]:
                lines.append(f'  v{p} -> v{q} [label="{v.digit}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
