"""Seeded inputs for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain Fractions and
digit tuples; the same seed always gives the same inputs. Systems are
written out as ``.ifs`` files, which is all the program under test sees.
Generated systems are checked with the program's own ``validate`` before
use and redrawn when they are not members.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from pathlib import Path

# The hand-checked systems shipped with the program.
CHECKED_IN = ("quad", "noend", "uneven")

# An unequal-ratio member: on the hull [0, 1], f1 = r1 x, f3 = rm x + 1 - rm
# and f2 = rm**u x + r1 (1 - rm**u) with r1 = 1/5, rm = 1/3, u = 2, so that
# f1 o f3 o f3 = f2 o f1. Its U1 bracket at tol 1e-12 misses the true
# dimension by 7.2e-11 on every run: the dimension workload keeps it as its
# one operation known to fail.
KNOWN_MISS = [(F(1, 5), F(0)), (F(1, 9), F(8, 45)), (F(1, 3), F(2, 3))]


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def equal_ratio_member(rng: random.Random, m: int, overlaps):
    """Equal-ratio member by the recipe of the test suite's ``random_member``.

    On the hull [0, 1] an overlapping neighbour pair with tail length w
    advances the offset by exactly ratio - ratio**(w+1) (the composed-image
    identity for equal ratios) and a disjoint pair by ratio plus a positive
    gap; the gaps share the budget that makes the last map fix 1. Exactly
    the 0-based neighbour pairs in ``overlaps`` overlap, each with a random w.
    """
    ratio = F(1, m + rng.randint(1, 4))
    plan = [rng.choice([1, 1, 2, 3]) if i in overlaps else None for i in range(m - 1)]
    overlap_total = sum(ratio - ratio ** (w + 1) for w in plan if w is not None)
    gap_pairs = [i for i, w in enumerate(plan) if w is None]
    budget = (1 - ratio) - overlap_total - len(gap_pairs) * ratio
    weights = [F(rng.randint(1, 9)) for _ in gap_pairs]
    gaps = dict(zip(gap_pairs, (budget * w / sum(weights) for w in weights)))
    offsets = [F(0)]
    for i, w in enumerate(plan):
        step = ratio + gaps[i] if w is None else ratio - ratio ** (w + 1)
        offsets.append(offsets[-1] + step)
    return [(ratio, b) for b in offsets]


def conjugate(rng: random.Random, maps):
    """The system seen through a seeded change of coordinates y = a x + c.

    Each map r x + b becomes r y + a b + c (1 - r). Ratios, overlap tails,
    cells and edge matrix are unchanged; every cut point and offset is a
    new rational.
    """
    a = F(rng.randint(1, 30), rng.randint(2, 9))
    c = F(rng.randint(-20, 20), rng.randint(2, 17))
    return [(r, a * b + c * (1 - r)) for r, b in maps]


def random_word(rng: random.Random, m: int, pre_len: tuple[int, int], per_len: tuple[int, int]):
    pre = tuple(rng.randint(1, m) for _ in range(rng.randint(*pre_len)))
    per = tuple(rng.randint(1, m) for _ in range(rng.randint(*per_len)))
    return pre, per


def word_text(pre, per) -> str:
    return f"w={','.join(map(str, pre))};p={','.join(map(str, per))}"


def _rational(q: F) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def write_ifs(path: Path, name: str, maps) -> None:
    lines = [f"name {name}"] + [f"map r={_rational(r)} b={_rational(b)}" for r, b in maps]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_ifs(path: Path):
    """(ratio, offset) pairs of an ``.ifs`` file, for the references."""
    maps = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens and tokens[0] == "map":
            maps.append((F(tokens[1][2:]), F(tokens[2][2:])))
    return maps


def is_member(maps) -> bool:
    from overlapifs import AffineMap, Ifs, validate

    return validate(Ifs.from_maps(AffineMap(r, b) for r, b in maps)).member


def draw_members(rng: random.Random, count: int, draw) -> list:
    """``count`` systems from ``draw(rng)`` that pass ``validate``."""
    out = []
    while len(out) < count:
        maps = draw(rng)
        if maps is not None and is_member(maps):
            out.append(maps)
    return out
