"""Exact rational geometry: closed intervals and contracting affine maps.

Every coordinate is a ``fractions.Fraction`` and every predicate below is an
exact equality or ordering test. There is deliberately no tolerance anywhere
in this module; the membership conditions checked elsewhere are equality
tests, and any rounding would make them unsound.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter

__all__ = [
    "AffineMap",
    "Interval",
    "format_rational",
    "parse_rational",
]

_RATIONAL = re.compile(r"^(-?\d+)(?:/(\d+))?$", re.ASCII)
# Sets a field of a frozen value. Unlike writing ``__dict__``, it keeps the
# instance's compact attribute layout, so later attribute reads stay fast.
_setattr = object.__setattr__


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


class _Value:
    """Base of the package's value classes.

    A subclass names its fields as class annotations, in order, and may give
    a default as a class attribute (``detail: str = ""``). It gets
    positional and keyword construction, the ``Name(field=value, ...)``
    repr, value equality and hashing over the fields, and frozen instances:
    assigning or deleting an attribute raises AttributeError. Fields are
    plain instance attributes, so ``functools.cached_property`` works. A
    class that checks its fields, or is built on a hot path, defines its own
    ``__init__`` that sets each field with ``_setattr``.
    """

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._complete(args, kwargs)
        for field, value in zip(self._fields, args):
            _setattr(self, field, value)

    def _complete(self, args: tuple, kwargs: dict) -> list:
        """Fill the fields that ``args`` leaves out from ``kwargs`` or the defaults."""
        rest, defaults = self._fields[len(args):], vars(type(self))
        missing = [f for f in rest if f not in kwargs and f not in defaults]
        if len(args) > len(self._fields) or missing or not kwargs.keys() <= set(rest):
            raise TypeError(
                f"{type(self).__name__}() takes the fields {', '.join(self._fields)}; "
                f"got {len(args)} positional and the keywords {sorted(kwargs)}"
            )
        return [*args, *(kwargs[f] if f in kwargs else defaults[f] for f in rest)]

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r} of frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of frozen {type(self).__name__}")


class Interval(_Value):
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        _setattr(self, "lo", lo)
        _setattr(self, "hi", hi)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

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

    def __str__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


class AffineMap(_Value):
    """Orientation-preserving contraction ``x -> ratio*x + offset``.

    The ratio is constrained to (0, 1): orientation-reversing or expanding
    maps are outside the scope of this package.
    """

    ratio: Fraction
    offset: Fraction

    def __init__(self, ratio: Fraction, offset: Fraction) -> None:
        if not (0 < ratio < 1):
            raise ValueError(f"ratio {format_rational(ratio)} outside (0, 1)")
        _setattr(self, "ratio", ratio)
        _setattr(self, "offset", offset)

    def __call__(self, x: Fraction) -> Fraction:
        return self.ratio * x + self.offset

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
