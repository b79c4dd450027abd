"""Reference answers computed independently of the program under test.

Nothing here imports ``overlapifs``. A system arrives as a list of
``(ratio, offset)`` pairs of Fractions, a point as an exact value or as an
eventually periodic digit word, and a dimension problem as an edge matrix
with one contraction ratio per vertex. The benchmark compares every output
of the program with these answers; none of them is a stored copy of an
earlier output.

* ``RefSystem.classify`` walks the exact residual graph of a point and reads
  the verdict off its prefix-count series (the number of length-n coding
  prefixes), with a depth that grows with the graph: ``max(60, 4*n + 8)``
  for a graph of n nodes. A fixed depth is not enough: at depth 60 a finite
  point whose graph has more than about 28 nodes has not yet stabilised and
  reads as countable.
* ``dimension_root`` finds the exponent where the ratio-weighted spectral
  radius of an edge matrix crosses one to 50 digits with mpmath, and
  certifies it with the M-matrix test: for a nonnegative A, rho(A) < 1
  exactly when every leading principal minor of I - A is positive.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import product

import mpmath

ORACLE_MIN_DEPTH = 60
WALK_CAP = 200_000
ROOT_DIGITS = 50

# Closed forms and high-precision reference values for the checked-in systems.
QUAD_E = "log(2+sqrt(2))/log(5)"
QUAD_U1 = "log(3)/log(5)"
UNEVEN_E = "0.58671219919039537789"


def closed_form(name: str) -> mpmath.mpf:
    """Evaluate one of the reference expressions above at 60 digits."""
    with mpmath.workdps(60):
        if name == QUAD_E:
            return mpmath.log(2 + mpmath.sqrt(2)) / mpmath.log(5)
        if name == QUAD_U1:
            return mpmath.log(3) / mpmath.log(5)
        return mpmath.mpf(name)


class CertificationError(RuntimeError):
    """A reference computation could not certify its own answer."""


class RefSystem:
    """Maps sorted by the left end of their hull image, digits 1-based."""

    def __init__(self, maps):
        maps = [(Fraction(r), Fraction(b)) for r, b in maps]
        fixes = [b / (1 - r) for r, b in maps]
        lo, hi = min(fixes), max(fixes)
        self.maps = sorted(maps, key=lambda rb: (rb[0] * lo + rb[1], rb[0], rb[1]))
        self.hull = (lo, hi)
        self.pieces = [(r * lo + b, r * hi + b) for r, b in self.maps]
        self._succ: dict[Fraction, tuple[tuple[int, Fraction], ...]] = {}

    @property
    def m(self) -> int:
        return len(self.maps)

    def value(self, pre, per) -> Fraction:
        """Exact value of the word pre per per per ..."""
        ratio, offset = Fraction(1), Fraction(0)
        for d in per:  # compose left to right: x -> current(f_d(x))
            r, b = self.maps[d - 1]
            ratio, offset = ratio * r, ratio * b + offset
        x = offset / (1 - ratio)
        for d in reversed(pre):
            r, b = self.maps[d - 1]
            x = r * x + b
        return x

    def successors(self, x: Fraction) -> tuple[tuple[int, Fraction], ...]:
        """(digit, residual) for every map whose hull image holds x."""
        out = self._succ.get(x)
        if out is None:
            out = tuple(
                (d, (x - b) / r)
                for d, ((r, b), (plo, phi)) in enumerate(zip(self.maps, self.pieces), start=1)
                if plo <= x <= phi
            )
            self._succ[x] = out
        return out

    def walk(self, x: Fraction) -> list[Fraction]:
        """Every residual reachable from x, in breadth-first order."""
        seen = {x}
        order = [x]
        queue = deque([x])
        while queue:
            for _, z in self.successors(queue.popleft()):
                if z not in seen:
                    if len(seen) >= WALK_CAP:
                        raise CertificationError(f"residual walk of {x} passed {WALK_CAP} nodes")
                    seen.add(z)
                    order.append(z)
                    queue.append(z)
        return order

    def _alive(self, nodes) -> set:
        alive = set(nodes)
        while True:
            dead = {y for y in alive if not any(z in alive for _, z in self.successors(y))}
            if not dead:
                return alive
            alive -= dead

    def classify(self, x: Fraction) -> tuple[str, int | None]:
        return self.classify_many([x])[0]

    def classify_many(self, xs) -> list[tuple[str, int | None]]:
        """("finite", k), ("countable", None) or ("continuum", None) per point.

        Point x with an n-node walk reads its series s to depth
        D = max(60, 4n + 8): a stable tail (s[D] == s[D - n - 3]) pins a
        finite count; growth of at least 2**(D // n) that also quadruples
        over the second half reads as a continuum; any other growth as
        countably many. The series of all points come from one pass over
        the union of their walks.
        """
        sizes, nodes = [], {}
        for x in xs:
            walk = self.walk(x)
            sizes.append(len(walk))
            nodes.update(dict.fromkeys(walk))
        alive = self._alive(nodes)
        index = {y: i for i, y in enumerate(alive)}
        edges = [[index[z] for _, z in self.successors(y) if z in index] for y in index]
        wanted: dict[int, list[tuple[int, int, int]]] = {}
        plans = []
        for p, (x, n) in enumerate(zip(xs, sizes)):
            if x not in index:
                raise CertificationError(f"{x} has no coding")
            depth = max(ORACLE_MIN_DEPTH, 4 * n + 8)
            plans.append((depth, n))
            for slot, k in enumerate((depth, depth - min(depth - 1, n + 3), depth // 2)):
                wanted.setdefault(k, []).append((p, slot, index[x]))
        values = [[0, 0, 0] for _ in xs]
        counts = [1] * len(edges)
        for k in range(max(wanted) + 1):
            if k:
                counts = [sum(counts[j] for j in succ) for succ in edges]
            for p, slot, i in wanted.get(k, ()):
                values[p][slot] = counts[i]
        verdicts = []
        for (depth, n), (last, earlier, half) in zip(plans, values):
            if last == earlier:
                verdicts.append(("finite", last))
            elif last >= 2 ** (depth // n) and last >= 4 * half:
                verdicts.append(("continuum", None))
            else:
                verdicts.append(("countable", None))
        return verdicts

    def prefixes(self, x: Fraction, depth: int) -> list[tuple[int, ...]]:
        """Sorted length-``depth`` prefixes of the codings of x."""
        alive = self._alive(self.walk(x))
        words = []
        stack = [(x, ())] if x in alive else []
        while stack:
            y, word = stack.pop()
            if len(word) == depth:
                words.append(word)
                continue
            stack.extend((z, word + (d,)) for d, z in self.successors(y) if z in alive)
        return sorted(words)


def sweep_points(system: RefSystem, max_pre: int = 4, max_per: int = 3, cap: int = 5000):
    """The distinct values of the theorem-2 sweep, in the sweep's order.

    Words run preperiod-major over preperiods of length 0..max_pre and
    periods of length 1..max_per, each length in lexicographic order; the
    first ``cap`` distinct values are kept.
    """
    digits = range(1, system.m + 1)
    pres = [w for n in range(max_pre + 1) for w in product(digits, repeat=n)]
    pers = [w for n in range(1, max_per + 1) for w in product(digits, repeat=n)]
    seen: dict[Fraction, None] = {}
    for pre in pres:
        for per in pers:
            seen.setdefault(system.value(pre, per))
            if len(seen) >= cap:
                return list(seen)
    return list(seen)


# --- dimension -------------------------------------------------------------


def _below_one(counts, logs, s, exp) -> bool:
    """rho(diag(r_p^s) counts) < 1, by positivity of the pivots of I - A."""
    n = len(counts)
    w = [exp(s * lg) for lg in logs]
    a = [[(1 if p == q else 0) - w[p] * counts[p][q] for q in range(n)] for p in range(n)]
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f:
                row_i, row_k = a[i], a[k]
                for j in range(k + 1, n):
                    row_i[j] -= f * row_k[j]
    return True


def dimension_root(counts, ratios, digits: int = ROOT_DIGITS) -> mpmath.mpf:
    """Exponent s where rho(diag(r_p^s) counts) = 1, certified to 10**-digits.

    Row p of the edge matrix is weighted by the ratio of vertex p. A float
    bisection finds the crossing roughly; Illinois regula falsi on
    det(I - A(s)) refines it at ``digits + 15`` digits; the M-matrix test
    at s -/+ 10**-digits certifies the result. Returns 0 when the radius is
    below one already at s = 0 (no cycle).
    """
    if not counts or any(len(row) != len(counts) for row in counts):
        raise ValueError("need a nonempty square edge matrix")
    logs_f = [math.log(Fraction(r)) for r in ratios]
    if _below_one(counts, logs_f, 0.0, math.exp):
        with mpmath.workdps(digits + 15):
            logs = [mpmath.log(mpmath.mpf(Fraction(r).numerator) / Fraction(r).denominator) for r in ratios]
            if not _below_one(counts, logs, mpmath.mpf(0), mpmath.exp):
                raise CertificationError("float and mpmath disagree on rho at s = 0")
        return mpmath.mpf(0)
    lo, hi = 0.0, 1.0
    while not _below_one(counts, logs_f, hi, math.exp):
        lo, hi = hi, 2 * hi
        if hi > 1e6:
            raise CertificationError("no upper bracket for the crossing")
    for _ in range(64):
        mid = (lo + hi) / 2
        if _below_one(counts, logs_f, mid, math.exp):
            hi = mid
        else:
            lo = mid
    with mpmath.workdps(digits + 15):
        logs = [mpmath.log(mpmath.mpf(Fraction(r).numerator) / Fraction(r).denominator) for r in ratios]

        def below(s):
            return _below_one(counts, logs, s, mpmath.exp)

        def g(s):
            n = len(counts)
            w = [mpmath.exp(s * lg) for lg in logs]
            return mpmath.det(
                mpmath.matrix(
                    [[(1 if p == q else 0) - w[p] * counts[p][q] for q in range(n)] for p in range(n)]
                )
            )

        width = mpmath.mpf("1e-9")
        a, b = mpmath.mpf(lo) - width, mpmath.mpf(hi) + width
        while below(a) or not below(b):
            width *= 1000
            a, b = max(mpmath.mpf(0), mpmath.mpf(lo) - width), mpmath.mpf(hi) + width
            if width > 1e3:
                raise CertificationError("could not bracket the crossing")
        ga, gb = g(a), g(b)
        tol = mpmath.mpf(10) ** (-digits - 5)
        side = 0
        for _ in range(400):
            if b - a < tol:
                break
            c = (a * gb - b * ga) / (gb - ga) if gb != ga else (a + b) / 2
            if not a < c < b:
                c = (a + b) / 2
            gc = g(c)
            if below(c):
                b, gb = c, gc
                if side == 1:
                    ga /= 2
                side = 1
            else:
                a, ga = c, gc
                if side == -1:
                    gb /= 2
                side = -1
        root = (a + b) / 2
        eps = mpmath.mpf(10) ** (-digits)
        if below(root - eps) or not below(root + eps):
            raise CertificationError(f"crossing near {mpmath.nstr(root, 20)} failed certification")
        return root
