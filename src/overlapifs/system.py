"""Ordered systems of contracting similitudes and their overlap structure.

The validator decides whether a system belongs to the analyzable family:
hull images ordered left to right with the extreme maps fixing the hull
endpoints, no next-but-one intersections, at least one overlapping and one
disjoint neighbour pair, and every overlap realized as a common composed
image from both sides. Violations are reported with exact witnesses instead
of raising.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

from .exact import AffineMap, Interval, _Value, format_rational

__all__ = [
    "Condition",
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_MAX_NODES",
    "DEFAULT_TOL",
    "EndCase",
    "Ifs",
    "InternalError",
    "NestedImageError",
    "OverlapSpec",
    "SearchCapExceeded",
    "ValidationReport",
    "Violation",
    "end_case",
    "validate",
]

# Safety net for the overlap searches; they terminate mathematically, but a
# near-1 ratio on malformed input could make "finitely many" impractically big.
SEARCH_CAP = 4096
# Defaults of the residual walk's limits (codings) and of the dimension
# bracket's width (dimension), kept here so that the command line can offer
# them without loading either module. All constructions used in practice close
# within tens of nodes; the limits only guard adversarial inputs, and hitting
# one yields an honest "unknown".
DEFAULT_MAX_NODES = 4096
DEFAULT_MAX_DEPTH = 512
DEFAULT_TOL = 1e-12


class Condition(Enum):
    """The four membership conditions, named by what each one checks."""

    ORDERING = "ordering"  # extreme maps fix the hull ends, left endpoints strictly increase
    SEPARATION = "separation"  # images of next-but-one maps are disjoint
    ADJACENCY_MIX = "adjacency-mix"  # some neighbours overlap, some leave a gap
    OVERLAP_IDENTITY = "overlap-identity"  # every overlap is a common composed image


class InternalError(RuntimeError):
    """A self-check failed, or no system was left to solve: the program gives no verdict."""


class SearchCapExceeded(InternalError):
    """An overlap search ran past the safety cap."""


class NestedImageError(InternalError):
    """A system that passed every check has one hull image inside another."""


def compose_triples(outer: tuple[int, int, int], inner: tuple[int, int, int]) -> tuple[int, int, int]:
    """``outer`` after ``inner``, maps as unreduced triples ``(a, b, c)``: x -> (a*x + b) / c."""
    (a, b, c), (p, q, r) = outer, inner
    return a * p, a * q + b * r, c * r


class Ifs(_Value):
    """An ordered list of similitudes together with the derived convex hull.

    Maps are indexed by 1-based digits throughout, matching the alphabet of
    the coding words. Construction sorts by left endpoint; it does not check
    membership, which is the validator's job.
    """

    maps: tuple[AffineMap, ...]
    hull: Interval

    @classmethod
    def from_maps(cls, maps: Iterable[AffineMap]) -> Ifs:
        items = list(maps)
        if not items:
            raise ValueError("need at least one map")
        fixes = [f.fixed_point() for f in items]
        a = min(fixes)
        ordered = tuple(sorted(items, key=lambda f: (f(a), f.ratio, f.offset)))
        hull = Interval(a, max(fixes))
        return cls(ordered, hull)

    @property
    def m(self) -> int:
        return len(self.maps)

    @cached_property
    def pieces(self) -> tuple[Interval, ...]:
        """Hull images in digit order, computed once; not a field, so outside eq and repr."""
        return tuple(f.apply_interval(self.hull) for f in self.maps)

    @cached_property
    def bounds(self) -> tuple[int, tuple[int, int], tuple[tuple[int, int], ...]]:
        """``(den, hull, pieces)``: every endpoint as an integer numerator over one common
        ``den``: n/q lies in image [lo, hi] / den when lo <= floor(n*den/q) and ceil(n*den/q) <= hi,
        one division for every image; only a root's hull check cross-multiplies."""
        ivs = (self.hull, *self.pieces)
        den = lcm(*(e.denominator for iv in ivs for e in (iv.lo, iv.hi)))
        hull, *pieces = [(int(iv.lo * den), int(iv.hi * den)) for iv in ivs]
        return den, hull, tuple(pieces)

    @cached_property
    def integer_maps(self) -> tuple[tuple[int, int, int], ...]:
        """Each map as integers ``(a, b, c)`` over one common ``c``: x -> (a*x + b) / c."""
        c = lcm(*(v.denominator for f in self.maps for v in (f.ratio, f.offset)))
        return tuple((f.ratio.numerator * c // f.ratio.denominator,
                      f.offset.numerator * c // f.offset.denominator, c) for f in self.maps)

    def _index(self, digit: int) -> int:
        if not 1 <= digit <= self.m:
            raise ValueError(f"digit {digit} outside 1..{self.m}")
        return digit - 1

    def map(self, digit: int) -> AffineMap:
        """Map for a 1-based digit."""
        return self.maps[self._index(digit)]

    def piece(self, digit: int) -> Interval:
        """Image of the hull under one map."""
        return self.pieces[self._index(digit)]

    def word_triple(self, word: Sequence[int]) -> tuple[int, int, int]:
        """The one unreduced ``integer_maps`` triple of a word, (1, 0, 1) if empty, composed by
        halves: neighbours pair up, level by level, where a left fold takes quadratic time."""
        maps = [self.integer_maps[self._index(d)] for d in word] or [(1, 0, 1)]
        while len(maps) > 1:
            maps = [*map(compose_triples, maps[::2], maps[1::2]), *maps[len(maps) & ~1:]]
        return maps[0]

    def compose_word(self, word: Sequence[int]) -> AffineMap:
        """Left-to-right composition, ``word_triple`` reduced once: the first digit's map is applied last."""
        if not word:
            raise ValueError("empty word")
        a, b, c = self.word_triple(word)
        return AffineMap(Fraction(a, c), Fraction(b, c))


class OverlapSpec(_Value):
    """Data of one overlapping neighbour pair (index, index + 1).

    ``composed`` is the common map sending the hull exactly onto the overlap;
    it equals both the index-side composition with ``u`` trailing copies of
    the last map and the (index+1)-side composition with ``v`` trailing
    copies of the first map, coefficient for coefficient.
    """

    index: int
    u: int
    v: int
    overlap: Interval
    composed: AffineMap


class Violation(_Value):
    condition: Condition
    detail: str


class ValidationReport(_Value):
    """``validate``'s outcome: the first violated condition, or None and a member's overlaps and
    disjoint pairs. ``member`` and the longest tails ``u_max``, ``v_max`` are derived, not stored."""

    violation: Violation | None
    overlaps: tuple[OverlapSpec, ...] = ()
    disjoint_pairs: tuple[int, ...] = ()

    @property
    def member(self) -> bool:
        return self.violation is None

    @property
    def u_max(self) -> int | None:
        return max((spec.u for spec in self.overlaps), default=None)

    @property
    def v_max(self) -> int | None:
        return max((spec.v for spec in self.overlaps), default=None)

    def overlap_at(self, index: int) -> OverlapSpec | None:
        return next((spec for spec in self.overlaps if spec.index == index), None)


class EndCase(_Value):
    """Which of the two extreme neighbour pairs overlap."""

    left_overlaps: bool
    right_overlaps: bool

    @property
    def tag(self) -> str:
        return "end-overlap" if (self.left_overlaps or self.right_overlaps) else "no-end-overlap"


def end_case(ifs: Ifs, report: ValidationReport) -> EndCase:
    """Case split on whether an extreme neighbour pair overlaps."""
    if not report.member:
        raise ValueError("end case is only defined for members")
    return EndCase(
        left_overlaps=report.overlap_at(1) is not None,
        right_overlaps=report.overlap_at(ifs.m - 1) is not None,
    )


def _overlap_spec(ifs: Ifs, index: int, inter: Interval) -> OverlapSpec | str:
    """Overlap data for the pair (index, index + 1), whose hull images meet in ``inter``.

    Searches for the tail lengths u and v realizing the overlap as a common
    composed image. Both searches walk a strictly monotone sequence toward a
    limit strictly past the target, so they stop in finitely many steps,
    either at exact equality or once the target has been passed. A passed
    target or a single-point overlap is returned as the violation's detail.
    """
    if inter.is_point:
        return f"overlap is the single point {format_rational(inter.lo)}"
    a = ifs.hull.lo
    b = ifs.hull.hi
    f_lo = ifs.map(index)
    f_hi = ifs.map(index + 1)
    first = ifs.maps[0]
    last = ifs.maps[-1]

    # Climb last^u(a) toward b until the index-side image hits the overlap's
    # left endpoint.
    t = last(a)
    u = 1
    while f_lo(t) < inter.lo:
        u += 1
        if u > SEARCH_CAP:
            raise SearchCapExceeded(f"tail search for pair {index} exceeded {SEARCH_CAP} steps")
        t = last(t)
    if f_lo(t) != inter.lo:
        return (
            f"right-tail search passed the overlap's left endpoint at u={u} "
            f"({format_rational(f_lo(t))} > {format_rational(inter.lo)})"
        )

    # Descend first^v(b) toward a until the (index+1)-side image hits the
    # overlap's right endpoint.
    t = first(b)
    v = 1
    while f_hi(t) > inter.hi:
        v += 1
        if v > SEARCH_CAP:
            raise SearchCapExceeded(f"tail search for pair {index} exceeded {SEARCH_CAP} steps")
        t = first(t)
    if f_hi(t) != inter.hi:
        return (
            f"left-tail search passed the overlap's right endpoint at v={v} "
            f"({format_rational(f_hi(t))} < {format_rational(inter.hi)})"
        )

    composed = ifs.compose_word((index,) + (ifs.m,) * u)
    mirror = ifs.compose_word((index + 1,) + (1,) * v)
    # Two increasing affine maps agreeing on both hull endpoints are equal,
    # so these can only differ through an implementation defect.
    if composed != mirror:
        return "composed maps disagree coefficient-wise"
    if composed.apply_interval(ifs.hull) != inter:
        return "composed image does not equal the overlap"
    return OverlapSpec(index=index, u=u, v=v, overlap=inter, composed=composed)


def validate(ifs: Ifs) -> ValidationReport:
    """Decide membership, reporting the first violated condition exactly.

    Checks run in a fixed order (ordering, separation, adjacency mix,
    overlap identities) and the report carries exact witness values for the
    first failure. For members the report lists every overlap's parameters
    and every disjoint neighbour pair.
    """
    a = ifs.hull.lo
    b = ifs.hull.hi
    maps = ifs.maps

    # Ordering: extreme maps fix the hull ends and left endpoints increase.
    if maps[0].fixed_point() != a:
        return ValidationReport(Violation(
            Condition.ORDERING,
            f"leftmost map fixes {format_rational(maps[0].fixed_point())}, "
            f"not the hull's left endpoint {format_rational(a)}",
        ))
    if maps[-1].fixed_point() != b:
        return ValidationReport(Violation(
            Condition.ORDERING,
            f"rightmost map fixes {format_rational(maps[-1].fixed_point())}, "
            f"not the hull's right endpoint {format_rational(b)}",
        ))
    lefts = [f(a) for f in maps]
    for i in range(len(lefts) - 1):
        if lefts[i] >= lefts[i + 1]:
            return ValidationReport(Violation(
                Condition.ORDERING,
                f"left endpoints of maps {i + 1} and {i + 2} do not strictly increase "
                f"({format_rational(lefts[i])} >= {format_rational(lefts[i + 1])})",
            ))
    for d in range(1, ifs.m + 1):
        if not ifs.hull.contains_interval(ifs.piece(d)):
            return ValidationReport(Violation(Condition.ORDERING, f"image of map {d} leaves the hull"))

    # Separation: next-but-one images must be disjoint.
    for i in range(1, ifs.m - 1):
        hi_i = ifs.piece(i).hi
        lo_next = ifs.piece(i + 2).lo
        if hi_i >= lo_next:
            return ValidationReport(Violation(
                Condition.SEPARATION,
                f"images of maps {i} and {i + 2} meet "
                f"({format_rational(hi_i)} >= {format_rational(lo_next)})",
            ))

    # Adjacency mix: need at least one gap and one nondegenerate overlap.
    intersections = [ifs.piece(i).intersect(ifs.piece(i + 1)) for i in range(1, ifs.m)]
    has_gap = any(iv is None for iv in intersections)
    has_overlap = any(iv is not None and not iv.is_point for iv in intersections)
    if not (has_gap and has_overlap):
        return ValidationReport(Violation(
            Condition.ADJACENCY_MIX,
            "need both a disjoint and an overlapping neighbour pair "
            f"(m={ifs.m}; gaps={'yes' if has_gap else 'no'}, "
            f"overlaps={'yes' if has_overlap else 'no'})",
        ))

    # Overlap identities.
    overlaps: list[OverlapSpec] = []
    disjoint: list[int] = []
    for i, inter in enumerate(intersections, start=1):
        if inter is None:
            disjoint.append(i)
            continue
        spec = _overlap_spec(ifs, i, inter)
        if isinstance(spec, str):
            return ValidationReport(Violation(Condition.OVERLAP_IDENTITY, f"pair ({i}, {i + 1}): {spec}"))
        overlaps.append(spec)

    # Consequence check: no hull image may contain another. This follows
    # from the four conditions, so a hit here is an internal inconsistency.
    for i, p in enumerate(ifs.pieces):
        for j, q in enumerate(ifs.pieces):
            if i != j and q.contains_interval(p):
                raise NestedImageError(
                    f"image {i + 1} contained in image {j + 1} despite passing all checks"
                )

    return ValidationReport(None, tuple(overlaps), tuple(disjoint))
