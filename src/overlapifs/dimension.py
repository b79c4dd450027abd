"""Coverage partition, the induced edge-labelled digraph, and its dimension.

The hull images cut the attractor along finitely many exact points into
closed cells; each cell is carried onto a window of cells by one inverse
map, so the cells obey a graph-directed structure. The attractor dimension
is then the unique exponent where the ratio-weighted spectral radius of the
edge matrix crosses one. Removing the cells where two neighbour images
exchange codings gives the subsystem bounding the single-coding set.
"""

from __future__ import annotations

import math
import operator
from decimal import Context
from fractions import Fraction
from typing import Sequence

from .exact import Interval, _Value, format_rational
from .system import Ifs, ValidationReport

__all__ = [
    "CoverViolationError",
    "DEFAULT_TOL",
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

DEFAULT_TOL = 1e-12
# Digits of r**s kept beyond the tolerance, and added when a test is undecided.
GUARD_DIGITS = 15


class PartitionInvariantError(RuntimeError):
    """The cut-point set misses its expected size or preimage closure."""


class CoverViolationError(RuntimeError):
    """The admissible cells fail to tile the union of hull images."""


class EmptyGraphError(ValueError):
    """The graph-directed system has no vertex or no edge, so it has no dimension to solve."""


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

    def gap_pairs(self) -> tuple[int, ...]:
        admissible = {i for i, _ in self.cells}
        return tuple(i for i in range(1, self.gamma) if i not in admissible)


def build_partition(ifs: Ifs, report: ValidationReport) -> Partition:
    """Cut points of a validated member system.

    The set consists of all hull-image endpoints plus the two overlap tails:
    the forward orbit of the right hull endpoint under the first map (up to
    the maximal left tail length) and of the left hull endpoint under the
    last map (up to the maximal right tail length). The expected count, the
    preimage closure of admissible pairs and the switch cells are hard checks.
    """
    if not report.member:
        raise ValueError("partition is only defined for members")
    assert report.u_max is not None and report.v_max is not None
    a, b = ifs.hull.lo, ifs.hull.hi
    first, last = ifs.maps[0], ifs.maps[-1]

    points: set[Fraction] = set()
    for d in range(1, ifs.m + 1):
        piece = ifs.piece(d)
        points.add(piece.lo)
        points.add(piece.hi)
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
        raise PartitionInvariantError(
            f"expected {expected} cut points, deduplication left {len(ordered)}"
        )

    cells: list[tuple[int, int]] = []
    for i in range(1, len(ordered)):
        cell = Interval(ordered[i - 1], ordered[i])
        for d in range(1, ifs.m + 1):
            if ifs.piece(d).contains_interval(cell):
                cells.append((i, d))
                break

    point_set = set(ordered)
    for i, d in cells:
        g = ifs.map(d)
        for endpoint in (ordered[i - 1], ordered[i]):
            pre = g.invert(endpoint)
            if pre not in point_set:
                raise PartitionInvariantError(
                    f"preimage {format_rational(pre)} of cut point "
                    f"{format_rational(endpoint)} under map {d} is not a cut point"
                )

    pair_of = {Interval(ordered[i - 1], ordered[i]): i for i, _ in cells}
    switches = tuple(pair_of.get(spec.overlap) for spec in report.overlaps)
    if None in switches:
        raise PartitionInvariantError("an overlap interval is not one admissible cell")
    return Partition(points=ordered, cells=tuple(cells), switches=switches)


class Vertex(_Value):
    """One admissible cell together with the map that expands it."""

    pair_index: int
    cell: Interval
    digit: int
    ratio: Fraction


class GraphDirectedSystem(_Value):
    """Vertices (admissible cells) and 0/1 edge counts between them.

    counts[p][q] = 1 when expanding vertex p's cell by its covering map's
    inverse yields a window containing vertex q's cell.
    """

    vertices: tuple[Vertex, ...]
    counts: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.vertices)

    def edge_count(self) -> int:
        return sum(sum(row) for row in self.counts)


def _merged(intervals: Sequence[Interval]) -> list[Interval]:
    """Union of closed intervals as a sorted list of maximal pieces."""
    pieces = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
    out: list[Interval] = []
    for iv in pieces:
        if out and iv.lo <= out[-1].hi:
            if iv.hi > out[-1].hi:
                out[-1] = Interval(out[-1].lo, iv.hi)
        else:
            out.append(iv)
    return out


def build_graph(ifs: Ifs, part: Partition) -> GraphDirectedSystem:
    """Edge structure over the admissible cells.

    Each vertex p gets an edge to exactly the admissible cells contained in
    the inverse image of p's cell under p's covering map. Two structural
    facts are verified along the way: the admissible cells cover exactly the
    union of the hull images, and no non-admissible gap meets a hull image
    in more than endpoints.
    """
    vertices = tuple(
        Vertex(
            pair_index=i,
            cell=part.pair_interval(i),
            digit=d,
            ratio=ifs.map(d).ratio,
        )
        for i, d in part.cells
    )

    cell_union = _merged([v.cell for v in vertices])
    piece_union = _merged([ifs.piece(d) for d in range(1, ifs.m + 1)])
    if cell_union != piece_union:
        raise CoverViolationError(
            "admissible cells do not cover the union of hull images: "
            f"{[str(iv) for iv in cell_union]} vs {[str(iv) for iv in piece_union]}"
        )
    for i in part.gap_pairs():
        gap = part.pair_interval(i)
        for d in range(1, ifs.m + 1):
            if ifs.piece(d).interior_overlaps(gap):
                raise CoverViolationError(
                    f"gap {gap} meets the image of map {d} beyond endpoints"
                )

    rows: list[tuple[int, ...]] = []
    for v in vertices:
        g = ifs.map(v.digit)
        window = Interval(g.invert(v.cell.lo), g.invert(v.cell.hi))
        rows.append(tuple(1 if window.contains_interval(w.cell) else 0 for w in vertices))
    return GraphDirectedSystem(vertices=vertices, counts=tuple(rows))


def check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _minor(matrix: Sequence[Sequence[int]], bound: int, divide=operator.floordiv):
    """The first leading principal minor of bound*I - matrix that is not positive, else the last.

    bound*I - matrix is a Z-matrix, and a Z-matrix is a nonsingular
    M-matrix (which here means rho(matrix) < bound) exactly when every
    leading principal minor is positive. Fraction-free (Bareiss) elimination
    yields those minors as its successive pivots.
    """
    n = len(matrix)
    a = [[(bound if p == q else 0) - x for q, x in enumerate(row)] for p, row in enumerate(matrix)]
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


def _below(matrix: Sequence[Sequence[int]], bound: int, divide=operator.floordiv) -> bool:
    """Exactly whether rho(matrix) < bound, for a nonnegative integer matrix (see ``_minor``)."""
    return _minor(matrix, bound, divide) > 0


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
    weighted spectral radius >= 1 at the lower end and < 1 at the upper end,
    and the width is at most the tolerance. ``value`` is the midpoint, and
    ``iterations`` counts the exponents tested exactly, not the float ones.
    ``method`` names the one route, for reports.
    """

    value: float
    bracket: tuple[Fraction, Fraction]
    iterations: int
    method = "bisection"


def _power_bounds(ratios: Sequence[Fraction], digits: int):
    """Return ``bounds(s)``: integers lo <= r**s * 10**digits <= hi per ratio r.

    ``decimal`` computes exp(s * ln r) with 10 spare digits, each step
    correctly rounded, so the truncated result widened by one unit below
    and two above encloses r**s.
    """
    ctx = Context(prec=digits + 10)
    logs = [ctx.ln(ctx.divide(r.numerator, r.denominator)) for r in ratios]

    def bounds(s: Fraction) -> tuple[list[int], list[int]]:
        t = ctx.divide(s.numerator, s.denominator)
        approx = [int(ctx.scaleb(ctx.exp(ctx.multiply(t, lg)), digits)) for lg in logs]
        return [max(0, v - 1) for v in approx], [v + 2 for v in approx]

    return bounds


def _float_guess(gds: GraphDirectedSystem, lo: float, hi: float, tol: float) -> float:
    """Illinois regula falsi on s in floats: proposes s*, proves nothing.

    f(s), ``_minor`` of the weighted matrix, is det(I - diag(r**s)·counts) for s > s*
    and a minor that is not positive otherwise; [lo, hi] keeps f(lo) <= 0 < f(hi).
    Secant steps start once both ends have a value, an end kept twice in a row has
    its value halved, and a clamp tol/8 inside makes a step next to s* cross it next.
    """
    ratios = [float(v.ratio) for v in gds.vertices]
    f_lo, f_hi, moved = math.nan, math.nan, 0
    while hi - lo > tol / 4 and lo < (mid := (lo + hi) / 2) < hi:
        s = lo + f_lo * (lo - hi) / (f_hi - f_lo) if f_lo <= 0 < f_hi else mid
        s = min(max(s, lo + tol / 8), hi - tol / 8)
        s = s if lo < s < hi else mid  # tol/8 is below float resolution
        weighted = [[r**s * c for c in row] for r, row in zip(ratios, gds.counts)]
        f = _minor(weighted, 1.0, operator.truediv)
        if f > 0:
            f_lo /= 2 if moved > 0 else 1
            hi, f_hi, moved = s, f, 1
        else:
            f_hi /= 2 if moved < 0 else 1
            lo, f_lo, moved = s, f, -1
    return (lo + hi) / 2


def solve_dimension(gds: GraphDirectedSystem, tol: float = DEFAULT_TOL) -> DimensionResult:
    """Bracket the exponent s* where the weighted spectral radius equals one.

    Row p of the edge matrix is weighted by r_p**s. The radius decreases
    strictly in s, so s <= s* exactly when it is at least one. The exact
    test encloses every r**s between integers over 10**P, P about 15 digits
    beyond ``tol``: a lower enclosure not below one proves s <= s*, an upper
    one below one proves s > s*. The bracket width is the largest power of
    two not above ``tol``. Around the float secant search's s*, rounded to a
    dyadic grid 16 times finer, and around any midpoint neither decides (s*
    is then within about 10**-P), the ends of that bracket are proved, at
    higher precision if need be; exact bisection goes on from whatever was
    proved.
    """
    check_tol(tol)
    if gds.size == 0:
        raise EmptyGraphError("empty graph-directed system")
    if gds.edge_count() == 0:
        raise EmptyGraphError("graph-directed system has no edges")

    ratios = sorted({v.ratio for v in gds.vertices})
    slots = [ratios.index(v.ratio) for v in gds.vertices]
    width = Fraction(2) ** (math.frexp(tol)[1] - 1)
    digits = GUARD_DIGITS + max(0, math.ceil(-math.log10(tol)))
    bounds = _power_bounds(ratios, digits)
    steps = 1

    def side(s: Fraction) -> int:
        """-1 when s <= s* is proved, 1 when s > s* is proved, else 0."""
        nonlocal steps
        steps += 1
        low, high = ([[w[k] * c for c in row] for k, row in zip(slots, gds.counts)] for w in bounds(s))
        if _below(high, 10**digits):
            return 1
        return 0 if _below(low, 10**digits) else -1

    def narrow(s: Fraction) -> None:
        """Prove each end of the ``width``-wide bracket centred on s that lies inside."""
        nonlocal digits, bounds, lo, hi
        for end in (s - width / 2, s + width / 2):
            if lo < end < hi:
                while (verdict := side(end)) == 0:
                    digits += GUARD_DIGITS
                    bounds = _power_bounds(ratios, digits)
                lo, hi = (end, hi) if verdict < 0 else (lo, end)

    if _below(gds.counts, 1):
        # Acyclic counts: the radius is zero at every exponent.
        return DimensionResult(0.0, (Fraction(0), Fraction(0)), 1)
    # The radius is at least one at s = 0, and at most the largest weighted row sum.
    lo, hi = Fraction(0), Fraction(1)
    while max(v.ratio**hi * sum(row) for v, row in zip(gds.vertices, gds.counts)) >= 1:
        hi *= 2
    if math.isfinite(guess := _float_guess(gds, float(lo), float(hi), tol)):
        narrow(round(Fraction(guess) * 16 / width) * width / 16)
    while hi - lo > width:
        s = (lo + hi) / 2
        verdict = side(s)
        if verdict == 0:
            narrow(s)
        elif verdict < 0:
            lo = s
        else:
            hi = s
    return DimensionResult(float((lo + hi) / 2), (lo, hi), steps)


def reduced_system(ifs: Ifs, part: Partition, gds: GraphDirectedSystem) -> GraphDirectedSystem:
    """Drop the switch cells (the overlaps themselves) and induced edges.

    Every overlapping neighbour pair contributes exactly one cell equal to
    the overlap interval (``part.switches``); removing those cells leaves the
    subsystem whose attractor contains every single-coding point.
    """
    keep = [p for p, vertex in enumerate(gds.vertices) if vertex.pair_index not in part.switches]
    if not keep:
        raise EmptyReducedSystemError("removing the switch cells deleted every vertex")

    vertices = tuple(gds.vertices[p] for p in keep)
    counts = tuple(tuple(gds.counts[p][q] for q in keep) for p in keep)
    return GraphDirectedSystem(vertices=vertices, counts=counts)


def to_dot(gds: GraphDirectedSystem, name: str = "coverage") -> str:
    """Graphviz rendering: cells labelled by exact endpoints, edges by digit."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for p, v in enumerate(gds.vertices):
        label = f"{format_rational(v.cell.lo)}..{format_rational(v.cell.hi)}"
        lines.append(f'  v{p} [label="{label}"];')
    for p, v in enumerate(gds.vertices):
        for q in range(gds.size):
            if gds.counts[p][q]:
                lines.append(f'  v{p} -> v{q} [label="{v.digit}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
