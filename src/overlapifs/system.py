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
from typing import Iterable, Sequence

from .exact import AffineMap, Interval, _Value, format_rational

__all__ = [
    "Condition",
    "EndCase",
    "Ifs",
    "OverlapIdentityError",
    "OverlapSpec",
    "SearchCapExceeded",
    "ValidationReport",
    "Violation",
    "end_case",
    "overlap_parameters",
    "validate",
]

# Safety net for the overlap searches; they terminate mathematically, but a
# near-1 ratio on malformed input could make "finitely many" impractically big.
SEARCH_CAP = 4096


class Condition(Enum):
    """The four membership conditions, named by what each one checks."""

    ORDERING = "ordering"  # extreme maps fix the hull ends, left endpoints strictly increase
    SEPARATION = "separation"  # images of next-but-one maps are disjoint
    ADJACENCY_MIX = "adjacency-mix"  # some neighbours overlap, some leave a gap
    OVERLAP_IDENTITY = "overlap-identity"  # every overlap is a common composed image


class SearchCapExceeded(RuntimeError):
    """Internal error: an overlap search ran past the safety cap."""


class OverlapIdentityError(Exception):
    """Neighbour images overlap but admit no common composed-image identity."""

    def __init__(self, index: int, detail: str):
        self.index = index
        self.detail = detail
        super().__init__(f"pair ({index}, {index + 1}): {detail}")


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

    def compose_word(self, word: Sequence[int]) -> AffineMap:
        """Left-to-right composition: the first digit's map is applied last."""
        if not word:
            raise ValueError("empty word")
        out = self.map(word[0])
        for d in word[1:]:
            out = out.compose(self.map(d))
        return out


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
    member: bool
    violation: Violation | None
    overlaps: tuple[OverlapSpec, ...]
    disjoint_pairs: tuple[int, ...]
    u_max: int | None
    v_max: int | None

    def overlap_at(self, index: int) -> OverlapSpec | None:
        for spec in self.overlaps:
            if spec.index == index:
                return spec
        return None


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


def overlap_parameters(ifs: Ifs, index: int) -> OverlapSpec | None:
    """Overlap data for the neighbour pair (index, index + 1).

    Returns ``None`` when the two hull images are disjoint. Otherwise
    searches for the tail lengths u and v realizing the overlap as a common
    composed image. Both searches walk a strictly monotone sequence toward a
    limit strictly past the target, so they stop in finitely many steps,
    either at exact equality or with an OverlapIdentityError once the target
    has been passed. A single-point overlap is also an OverlapIdentityError.
    """
    if not 1 <= index <= ifs.m - 1:
        raise ValueError(f"pair index {index} outside 1..{ifs.m - 1}")
    inter = ifs.piece(index).intersect(ifs.piece(index + 1))
    if inter is None:
        return None
    if inter.is_point:
        raise OverlapIdentityError(
            index, f"overlap is the single point {format_rational(inter.lo)}"
        )
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
        raise OverlapIdentityError(
            index,
            f"right-tail search passed the overlap's left endpoint at u={u} "
            f"({format_rational(f_lo(t))} > {format_rational(inter.lo)})",
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
        raise OverlapIdentityError(
            index,
            f"left-tail search passed the overlap's right endpoint at v={v} "
            f"({format_rational(f_hi(t))} < {format_rational(inter.hi)})",
        )

    composed = ifs.compose_word((index,) + (ifs.m,) * u)
    mirror = ifs.compose_word((index + 1,) + (1,) * v)
    # Two increasing affine maps agreeing on both hull endpoints are equal,
    # so these can only differ through an implementation defect.
    if composed != mirror:
        raise OverlapIdentityError(index, "composed maps disagree coefficient-wise")
    if composed.apply_interval(ifs.hull) != inter:
        raise OverlapIdentityError(index, "composed image does not equal the overlap")
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

    def fail(condition: Condition, detail: str) -> ValidationReport:
        return ValidationReport(
            member=False,
            violation=Violation(condition, detail),
            overlaps=(),
            disjoint_pairs=(),
            u_max=None,
            v_max=None,
        )

    # Ordering: extreme maps fix the hull ends and left endpoints increase.
    if maps[0].fixed_point() != a:
        return fail(
            Condition.ORDERING,
            f"leftmost map fixes {format_rational(maps[0].fixed_point())}, "
            f"not the hull's left endpoint {format_rational(a)}",
        )
    if maps[-1].fixed_point() != b:
        return fail(
            Condition.ORDERING,
            f"rightmost map fixes {format_rational(maps[-1].fixed_point())}, "
            f"not the hull's right endpoint {format_rational(b)}",
        )
    lefts = [f(a) for f in maps]
    for i in range(len(lefts) - 1):
        if lefts[i] >= lefts[i + 1]:
            return fail(
                Condition.ORDERING,
                f"left endpoints of maps {i + 1} and {i + 2} do not strictly increase "
                f"({format_rational(lefts[i])} >= {format_rational(lefts[i + 1])})",
            )
    for d in range(1, ifs.m + 1):
        if not ifs.hull.contains_interval(ifs.piece(d)):
            return fail(Condition.ORDERING, f"image of map {d} leaves the hull")

    # Separation: next-but-one images must be disjoint.
    for i in range(1, ifs.m - 1):
        hi_i = ifs.piece(i).hi
        lo_next = ifs.piece(i + 2).lo
        if hi_i >= lo_next:
            return fail(
                Condition.SEPARATION,
                f"images of maps {i} and {i + 2} meet "
                f"({format_rational(hi_i)} >= {format_rational(lo_next)})",
            )

    # Adjacency mix: need at least one gap and one nondegenerate overlap.
    intersections = [ifs.piece(i).intersect(ifs.piece(i + 1)) for i in range(1, ifs.m)]
    has_gap = any(iv is None for iv in intersections)
    has_overlap = any(iv is not None and not iv.is_point for iv in intersections)
    if not (has_gap and has_overlap):
        return fail(
            Condition.ADJACENCY_MIX,
            "need both a disjoint and an overlapping neighbour pair "
            f"(m={ifs.m}; gaps={'yes' if has_gap else 'no'}, "
            f"overlaps={'yes' if has_overlap else 'no'})",
        )

    # Overlap identities.
    overlaps: list[OverlapSpec] = []
    disjoint: list[int] = []
    for i, inter in enumerate(intersections, start=1):
        if inter is None:
            disjoint.append(i)
            continue
        try:
            spec = overlap_parameters(ifs, i)
        except OverlapIdentityError as exc:
            return fail(Condition.OVERLAP_IDENTITY, str(exc))
        assert spec is not None
        overlaps.append(spec)

    # Consequence check: no hull image may contain another. This follows
    # from the four conditions, so a hit here is an internal inconsistency.
    pieces = [ifs.piece(d) for d in range(1, ifs.m + 1)]
    for i, p in enumerate(pieces):
        for j, q in enumerate(pieces):
            if i != j and q.contains_interval(p):
                raise RuntimeError(
                    f"image {i + 1} contained in image {j + 1} despite passing all checks"
                )

    return ValidationReport(
        member=True,
        violation=None,
        overlaps=tuple(overlaps),
        disjoint_pairs=tuple(disjoint),
        u_max=max(s.u for s in overlaps),
        v_max=max(s.v for s in overlaps),
    )
