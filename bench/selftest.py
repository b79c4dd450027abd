"""Self-tests of the references against hand-checked values.

Run with ``python3 bench/selftest.py``; the benchmark also runs them before
it checks any output, and reports ``correct: false`` if one fails.

The points and overlap data are the hand-checked ones of the test suite
(tests/conftest.py, tests/test_acceptance.py) and the README. The edge
matrices are worked out by hand from the cut points:

* quad, cut points 0 < 4/25 < 1/5 < 9/25 < 16/25 < 4/5 < 21/25 < 1, cells
  [0,4/25] [4/25,1/5] [1/5,9/25] [16/25,4/5] [4/5,21/25] [21/25,1] carried
  by maps 1 1 2 3 3 4; U1 drops the overlaps [4/25,1/5] and [4/5,21/25].
* uneven, cut points 0 < 8/81 < 1/9 < 17/81 < 2/3 < 8/9 < 1, cells
  [0,8/81] [8/81,1/9] [1/9,17/81] [2/3,8/9] [8/9,1] carried by maps
  1 1 2 3 3 with ratios 1/9 1/9 1/9 1/3 1/3.
"""

from __future__ import annotations

import sys
from fractions import Fraction as F

import mpmath

import refs

QUAD = [(F(1, 5), F(0)), (F(1, 5), F(4, 25)), (F(1, 5), F(16, 25)), (F(1, 5), F(4, 5))]
QUAD_E = [[1, 1, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1], [0, 0, 1, 1, 1, 1],
          [1, 1, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1], [0, 0, 1, 1, 1, 1]]
QUAD_U1 = [[1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 1, 0], [0, 1, 1, 1]]
UNEVEN_E = [[1, 1, 1, 1, 0], [0, 0, 0, 0, 1], [0, 0, 1, 1, 1], [1, 1, 1, 0, 0], [0, 0, 0, 1, 1]]
UNEVEN_RATIOS = [F(1, 9)] * 3 + [F(1, 3)] * 2

# (preperiod, period, verdict, depth-3 prefixes or None) on quad.
QUAD_POINTS = [
    ((), (4,), ("finite", 1), [(4, 4, 4)]),
    ((1,), (4,), ("countable", None), [(1, 4, 4), (2, 1, 4), (2, 2, 1), (2, 2, 2)]),
    ((), (1, 4), ("continuum", None), None),
    ((1, 4, 2), (4,), ("finite", 2), [(1, 4, 2), (2, 1, 2)]),
    # A 41-node graph: at a fixed depth of 60 the series has not settled yet.
    ((4, 3, 2, 4, 3, 4, 2, 4, 1, 3, 1, 4, 1, 3, 1, 4, 1, 2, 2, 1, 4, 3, 3, 2), (2, 2, 3, 3, 1, 1, 3),
     ("finite", 156), None),
]


def run() -> list[str]:
    problems = []
    quad = refs.RefSystem(QUAD)
    for pre, per, verdict, prefixes in QUAD_POINTS:
        x = quad.value(pre, per)
        if quad.classify(x) != verdict:
            problems.append(f"quad w={pre};p={per}: {quad.classify(x)}, expected {verdict}")
        if prefixes is not None and quad.prefixes(x, 3) != prefixes:
            problems.append(f"quad w={pre};p={per}: prefixes {quad.prefixes(x, 3)}")
    if quad.value((1,), (4,)) != F(1, 5) or quad.value((1, 4, 2), (4,)) != F(109, 625):
        problems.append("quad word values differ from 1/5 and 109/625")

    cases = [(QUAD_E, [F(1, 5)] * 6, refs.QUAD_E, 45), (QUAD_U1, [F(1, 5)] * 4, refs.QUAD_U1, 45),
             (UNEVEN_E, UNEVEN_RATIOS, refs.UNEVEN_E, 19)]
    for counts, ratios, known, digits in cases:
        root = refs.dimension_root(counts, ratios)
        with mpmath.workdps(80):
            if not abs(root - refs.closed_form(known)) < mpmath.mpf(10) ** (-digits):
                problems.append(f"root {mpmath.nstr(root, 30)} differs from {known}")
    if refs.dimension_root([[0, 1], [0, 0]], [F(1, 2)] * 2) != 0:
        problems.append("an acyclic edge matrix does not give dimension 0")
    return problems


if __name__ == "__main__":
    found = run()
    for line in found:
        print(line)
    print("reference self-tests:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
