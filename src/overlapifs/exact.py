"""Exact rational geometry: closed intervals and contracting affine maps.

Every coordinate is a ``fractions.Fraction`` and every predicate below is an
exact equality or ordering test. There is deliberately no tolerance anywhere
in this module; the membership conditions checked elsewhere are equality
tests, and any rounding would make them unsound.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "AffineMap",
    "Interval",
    "format_rational",
    "parse_rational",
]

_RATIONAL = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` (decimal digits, optional leading minus)."""
    match = _RATIONAL.match(text.strip())
    if match is None:
        raise ValueError(f"not a rational: {text!r}")
    num = int(match.group(1))
    den = int(match.group(2)) if match.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    """Render as ``p/q``, or plain ``p`` for integers."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: Interval) -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: Interval) -> Interval | None:
        """Intersection of closed intervals.

        Returns ``None`` when the intervals are disjoint; a single shared
        endpoint yields a degenerate (one point) interval, which callers may
        need to distinguish from a genuine overlap.
        """
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def interior_overlaps(self, other: Interval) -> bool:
        """True when the open interiors intersect."""
        return max(self.lo, other.lo) < min(self.hi, other.hi)

    def __str__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


@dataclass(frozen=True)
class AffineMap:
    """Orientation-preserving contraction ``x -> ratio*x + offset``.

    The ratio is constrained to (0, 1): orientation-reversing or expanding
    maps are outside the scope of this package.
    """

    ratio: Fraction
    offset: Fraction

    def __post_init__(self) -> None:
        if not (0 < self.ratio < 1):
            raise ValueError(f"ratio must lie strictly between 0 and 1, got {self.ratio}")

    def __call__(self, x: Fraction) -> Fraction:
        return self.ratio * x + self.offset

    def compose(self, inner: AffineMap) -> AffineMap:
        """``self`` after ``inner``: the returned map sends x to self(inner(x))."""
        return AffineMap(self.ratio * inner.ratio, self.ratio * inner.offset + self.offset)

    def fixed_point(self) -> Fraction:
        """The unique x with map(x) = x, exactly offset / (1 - ratio)."""
        return self.offset / (1 - self.ratio)

    def apply_interval(self, iv: Interval) -> Interval:
        """Image of a closed interval; exact endpoints, orientation preserved."""
        return Interval(self(iv.lo), self(iv.hi))

    def invert(self, y: Fraction) -> Fraction:
        """The unique x with map(x) = y."""
        return (y - self.offset) / self.ratio

    def __str__(self) -> str:
        return f"x -> {format_rational(self.ratio)}*x + {format_rational(self.offset)}"
