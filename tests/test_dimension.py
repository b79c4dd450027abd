"""Partition, cell digraph, spectral radius and the dimension solver."""

import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import numpy as np
import pytest

import overlapifs.dimension
from conftest import member_instances, mpmath_dimension, random_unequal_member, strongly_connected
from overlapifs import (
    AffineMap,
    EmptyGraphError,
    EmptyReducedSystemError,
    GraphDirectedSystem,
    Ifs,
    Interval,
    OverlapSpec,
    PartitionInvariantError,
    ValidationReport,
    Vertex,
    build_graph,
    build_partition,
    reduced_system,
    solve_dimension,
    spectral_radius,
    to_dot,
    validate,
)
from overlapifs.cli import parse_ifs_file
from overlapifs.dimension import _below, _float_guess

QUAD_MATRIX = (
    (1, 1, 1, 1, 0, 0),
    (0, 0, 0, 0, 1, 1),
    (0, 0, 1, 1, 1, 1),
    (1, 1, 1, 1, 0, 0),
    (0, 0, 0, 0, 1, 1),
    (0, 0, 1, 1, 1, 1),
)
QUAD_REDUCED = (
    (1, 1, 1, 0),
    (0, 1, 1, 1),
    (1, 1, 1, 0),
    (0, 1, 1, 1),
)
NOEND_MATRIX = (
    (1, 1, 1, 1, 1),
    (1, 1, 1, 1, 0),
    (0, 0, 0, 0, 1),
    (0, 1, 1, 1, 1),
    (1, 1, 1, 1, 1),
)
NOEND_REDUCED = (
    (1, 1, 1, 1),
    (1, 1, 1, 0),
    (0, 1, 1, 1),
    (1, 1, 1, 1),
)


def known_miss_reduced():
    """Reduced system whose bracket once excluded its root.

    f1 = x/5, f2 = x/9 + 8/45, f3 = x/3 + 2/3; f1 f3 f3 = f2 f1.
    """
    ifs = Ifs.from_maps(
        [AffineMap(F(1, 5), F(0)), AffineMap(F(1, 9), F(8, 45)), AffineMap(F(1, 3), F(2, 3))]
    )
    part = build_partition(ifs, validate(ifs))
    return reduced_system(ifs, part, build_graph(ifs, part))


def solved_systems(ifs):
    """The attractor's system E and the reduced system bounding U1."""
    part = build_partition(ifs, validate(ifs))
    full = build_graph(ifs, part)
    return full, reduced_system(ifs, part, full)


def assert_holds(bracket, root, tol):
    lo, hi = bracket
    assert hi - lo <= F(tol)
    with mpmath.workdps(50):
        assert mpmath.mpf(lo.numerator) / lo.denominator <= root
        assert root <= mpmath.mpf(hi.numerator) / hi.denominator


def exact_char_poly(matrix):
    """Characteristic polynomial coefficients by the Faddeev-LeVerrier
    recurrence in exact rational arithmetic (leading coefficient first)."""
    n = len(matrix)
    a = [[F(x) for x in row] for row in matrix]

    def mat_mul(p, q):
        return [
            [sum(p[i][k] * q[k][j] for k in range(n)) for j in range(n)] for i in range(n)
        ]

    def trace(p):
        return sum(p[i][i] for i in range(n))

    coeffs = [F(1)]
    mk = [[F(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            mk[i][i] += coeffs[-1]
        mk = mat_mul(a, mk)
        coeffs.append(-trace(mk) / k)
    return coeffs


def quad_radius_oracle():
    """Independent value for the largest eigenvalue of the six-cell matrix.

    Rows (1,4), (2,5), (3,6) coincide, so the spectrum of the quotient
    three-by-three matrix carries the largest eigenvalue. Its exact
    characteristic polynomial factors as (t - 1)(t^2 - 4t + 2), giving
    2 + sqrt(2).
    """
    quotient = [[0] * 3 for _ in range(3)]
    classes = [(0, 3), (1, 4), (2, 5)]
    for qi, (r, _) in enumerate(classes):
        for qj, cols in enumerate(classes):
            quotient[qi][qj] = sum(QUAD_MATRIX[r][c] for c in cols)
    coeffs = exact_char_poly(quotient)
    assert coeffs == [F(1), F(-5), F(6), F(-2)]  # == (t-1)(t^2-4t+2)
    return 2 + math.sqrt(2)


class TestPartition:
    def test_quad_points(self, quad, quad_report):
        part = build_partition(quad, quad_report)
        assert part.points == (
            F(0), F(4, 25), F(1, 5), F(9, 25), F(16, 25), F(4, 5), F(21, 25), F(1),
        )
        assert part.gamma == 8 == 2 * 4 + 1 + 1 - 2
        assert part.cells == ((1, 1), (2, 1), (3, 2), (5, 3), (6, 3), (7, 4))
        assert part.switches == (2, 6)
        assert part.gap_pairs() == (4,)

    def test_noend_points(self, noend, noend_report):
        part = build_partition(noend, noend_report)
        assert part.points == (
            F(0), F(1, 5), F(3, 10), F(23, 50), F(1, 2), F(33, 50), F(4, 5), F(1),
        )
        assert part.gamma == 8
        assert part.cells == ((1, 1), (3, 2), (4, 2), (5, 3), (7, 4))
        assert part.switches == (4,)

    def test_uneven_points(self, uneven, uneven_report):
        part = build_partition(uneven, uneven_report)
        assert part.points == (F(0), F(8, 81), F(1, 9), F(17, 81), F(2, 3), F(8, 9), F(1))
        assert part.gamma == 7 == 2 * 3 + 2 + 1 - 2
        assert [i for i, _ in part.cells] == [1, 2, 3, 5, 6]

    def test_preimage_closure(self, quad, quad_report, noend, noend_report, uneven, uneven_report):
        for ifs, report in ((quad, quad_report), (noend, noend_report), (uneven, uneven_report)):
            part = build_partition(ifs, report)
            points = set(part.points)
            for i, d in part.cells:
                g = ifs.map(d)
                cell = part.pair_interval(i)
                assert g.invert(cell.lo) in points
                assert g.invert(cell.hi) in points

    def test_count_mismatch_raises(self, quad, quad_report):
        # dropping the right tail leaves eight distinct points against an
        # expected count of seven, which the builder must refuse
        doctored = ValidationReport(
            member=quad_report.member,
            violation=quad_report.violation,
            overlaps=quad_report.overlaps,
            disjoint_pairs=quad_report.disjoint_pairs,
            u_max=0,
            v_max=quad_report.v_max,
        )
        with pytest.raises(PartitionInvariantError):
            build_partition(quad, doctored)

    def test_overlap_off_the_cells_raises(self, quad, quad_report):
        # an overlap spanning two cells names no single switch cell
        spec = quad_report.overlaps[0]
        wide = OverlapSpec(spec.index, spec.u, spec.v, Interval(F(4, 25), F(9, 25)), spec.composed)
        doctored = ValidationReport(
            member=quad_report.member,
            violation=quad_report.violation,
            overlaps=(wide,) + quad_report.overlaps[1:],
            disjoint_pairs=quad_report.disjoint_pairs,
            u_max=quad_report.u_max,
            v_max=quad_report.v_max,
        )
        with pytest.raises(PartitionInvariantError, match="not one admissible cell"):
            build_partition(quad, doctored)

    @pytest.mark.parametrize("name", ["quad", "noend", "uneven"])
    def test_builds_are_equal_and_hash_equal(self, data_dir, name):
        def build():
            ifs = Ifs.from_maps(parse_ifs_file((data_dir / f"{name}.ifs").read_text()).maps)
            return build_partition(ifs, validate(ifs))

        one, two = build(), build()
        assert one == two and hash(one) == hash(two)

    def test_requires_member(self, quad):
        from overlapifs import AffineMap, Ifs

        bad = validate(Ifs.from_maps([AffineMap(F(1, 5), F(0)), AffineMap(F(1, 5), F(4, 5))]))
        with pytest.raises(ValueError):
            build_partition(quad, bad)


class TestBuildGraph:
    def test_quad_matrix(self, quad, quad_report):
        gds = build_graph(quad, build_partition(quad, quad_report))
        assert gds.counts == QUAD_MATRIX
        assert all(v.ratio == F(1, 5) for v in gds.vertices)
        assert [v.digit for v in gds.vertices] == [1, 1, 2, 3, 3, 4]

    def test_noend_matrix(self, noend, noend_report):
        gds = build_graph(noend, build_partition(noend, noend_report))
        assert gds.counts == NOEND_MATRIX

    def test_vertices_ordered_by_left_endpoint(self, quad, quad_report):
        gds = build_graph(quad, build_partition(quad, quad_report))
        lows = [v.cell.lo for v in gds.vertices]
        assert lows == sorted(lows)

    def test_window_tiling(self, noend, noend_report):
        # each cell is tiled by the covering map's images of the cells and
        # gaps inside its window; lengths must add up exactly
        def length(iv):
            return iv.hi - iv.lo

        part = build_partition(noend, noend_report)
        gds = build_graph(noend, part)
        for p, vertex in enumerate(gds.vertices):
            g = noend.map(vertex.digit)
            window = Interval(g.invert(vertex.cell.lo), g.invert(vertex.cell.hi))
            covered = sum(
                length(gds.vertices[q].cell) for q in range(gds.size) if gds.counts[p][q]
            )
            gaps_inside = sum(
                length(part.pair_interval(i))
                for i in part.gap_pairs()
                if window.contains_interval(part.pair_interval(i))
            )
            assert covered + gaps_inside == length(window)
            assert vertex.ratio * length(window) == length(vertex.cell)

    def test_row_sums_match_hand_tiling(self, noend, noend_report):
        gds = build_graph(noend, build_partition(noend, noend_report))
        assert [sum(row) for row in gds.counts] == [5, 4, 1, 4, 5]

    def test_counts_are_zero_or_one(self, quad, quad_report, uneven, uneven_report):
        for ifs, report in ((quad, quad_report), (uneven, uneven_report)):
            gds = build_graph(ifs, build_partition(ifs, report))
            assert all(c in (0, 1) for row in gds.counts for c in row)


class TestStrongConnectivity:
    def test_fixtures(self, quad, quad_report, noend, noend_report, uneven, uneven_report):
        for ifs, report in ((quad, quad_report), (noend, noend_report), (uneven, uneven_report)):
            gds = build_graph(ifs, build_partition(ifs, report))
            assert strongly_connected(gds)

    def test_single_vertex_no_edges(self):
        gds = GraphDirectedSystem(
            vertices=(Vertex(1, Interval(F(0), F(1)), 1, F(1, 2)),), counts=((0,),)
        )
        assert strongly_connected(gds)

    def test_two_disconnected_vertices(self):
        v = Vertex(1, Interval(F(0), F(1)), 1, F(1, 2))
        w = Vertex(2, Interval(F(2), F(3)), 2, F(1, 2))
        gds = GraphDirectedSystem(vertices=(v, w), counts=((1, 0), (0, 1)))
        assert not strongly_connected(gds)

    def test_random_members(self):
        for ifs, _plan in member_instances(seed=5150, count=10):
            report = validate(ifs)
            gds = build_graph(ifs, build_partition(ifs, report))
            assert strongly_connected(gds)


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius([[1, 0], [0, 1]]) == pytest.approx(1.0, abs=1e-12)

    def test_quad_matrix_matches_char_poly_oracle(self):
        assert spectral_radius(QUAD_MATRIX) == pytest.approx(quad_radius_oracle(), abs=1e-9)

    def test_reduced_quad_constant_row_sums(self):
        # every row of the reduced matrix sums to 3, so the radius is 3
        assert spectral_radius(QUAD_REDUCED) == pytest.approx(3.0, abs=1e-9)

    def test_agrees_with_numpy_eigvals(self):
        for matrix in (QUAD_MATRIX, QUAD_REDUCED, NOEND_MATRIX, NOEND_REDUCED):
            expected = max(abs(np.linalg.eigvals(np.array(matrix, dtype=float))))
            assert spectral_radius(matrix) == pytest.approx(expected, abs=1e-9)

    def test_bare_two_cycle(self):
        # periodic support: [[0,2],[1,0]] has radius sqrt(2)
        assert spectral_radius([[0, 2], [1, 0]]) == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_permutation_cycle(self):
        assert spectral_radius([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == pytest.approx(1.0, abs=1e-9)

    def test_reducible_takes_block_max(self):
        assert spectral_radius([[2, 1], [0, 3]]) == pytest.approx(3.0, abs=1e-9)

    def test_nilpotent(self):
        assert spectral_radius([[0, 1], [0, 0]]) == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            spectral_radius([[1, 2, 3]])
        with pytest.raises(ValueError):
            spectral_radius([[-1]])
        with pytest.raises(ValueError):
            spectral_radius([[1]], tol=0)

    def test_near_degenerate_symmetric_pair(self):
        a, b, d = 1.0, 1e-5, 1 - 1e-6
        closed = (a + d) / 2 + math.sqrt(((a - d) / 2) ** 2 + b * b)
        assert abs(spectral_radius([[a, b], [b, d]], tol=1e-9) - closed) <= 1e-9

    def test_rejects_non_finite_tol(self):
        for tol in (math.inf, math.nan, -1.0):
            with pytest.raises(ValueError):
                spectral_radius([[1]], tol=tol)


class TestSolveDimension:
    def test_quad_full(self, quad, quad_report):
        gds = build_graph(quad, build_partition(quad, quad_report))
        result = solve_dimension(gds)
        expected = math.log(quad_radius_oracle()) / math.log(5)
        assert result.value == pytest.approx(expected, abs=1e-6)
        assert result.method == "bisection"
        lo, hi = result.bracket
        assert hi - lo <= F(10, 10**9)

    def test_quad_reduced(self, quad, quad_report):
        part = build_partition(quad, quad_report)
        gds = build_graph(quad, part)
        result = solve_dimension(reduced_system(quad, part, gds))
        assert result.value == pytest.approx(math.log(3) / math.log(5), abs=1e-6)

    def test_strict_gap(self, quad, quad_report, noend, noend_report, uneven, uneven_report):
        tol = 1e-9
        for ifs, report in ((quad, quad_report), (noend, noend_report), (uneven, uneven_report)):
            part = build_partition(ifs, report)
            gds = build_graph(ifs, part)
            full = solve_dimension(gds, tol)
            reduced = solve_dimension(reduced_system(ifs, part, gds), tol)
            assert reduced.value + 10 * tol < full.value

    def test_closed_form_and_bisection_agree(self, quad, quad_report, noend, noend_report):
        # equal ratios: the root is log(rho) / -log(ratio), rho the 0/1 matrix's radius
        for ifs, report in ((quad, quad_report), (noend, noend_report)):
            gds = build_graph(ifs, build_partition(ifs, report))
            rho = max(abs(np.linalg.eigvals(np.array(gds.counts, dtype=float))))
            closed = math.log(rho) / -math.log(gds.vertices[0].ratio)
            bisected = solve_dimension(gds)
            assert bisected.method == "bisection"
            assert abs(closed - bisected.value) <= 1e-9

    def test_bracket_straddles_crossing(self, noend, noend_report):
        gds = build_graph(noend, build_partition(noend, noend_report))
        result = solve_dimension(gds)
        lo, hi = result.bracket
        weighted_lo = [[c * float(v.ratio) ** float(lo) for c in row]
                       for row, v in zip(gds.counts, gds.vertices)]
        weighted_hi = [[c * float(v.ratio) ** float(hi) for c in row]
                       for row, v in zip(gds.counts, gds.vertices)]
        assert spectral_radius(weighted_lo) >= 1.0 >= spectral_radius(weighted_hi)
        assert hi - lo <= F(10, 10**9)

    def test_uneven_ratios_use_bisection(self, uneven, uneven_report):
        gds = build_graph(uneven, build_partition(uneven, uneven_report))
        result = solve_dimension(gds)
        assert result.method == "bisection"
        weighted = [[c * float(v.ratio) ** result.value for c in row]
                    for row, v in zip(gds.counts, gds.vertices)]
        assert spectral_radius(weighted) == pytest.approx(1.0, abs=1e-6)

    def test_single_self_loop_has_dimension_zero(self):
        gds = GraphDirectedSystem(
            vertices=(Vertex(1, Interval(F(0), F(1)), 1, F(1, 2)),), counts=((1,),)
        )
        result = solve_dimension(gds)
        assert result.value == pytest.approx(0.0, abs=1e-9)

    def test_rejects_edgeless(self):
        gds = GraphDirectedSystem(
            vertices=(Vertex(1, Interval(F(0), F(1)), 1, F(1, 2)),), counts=((0,),)
        )
        with pytest.raises(EmptyGraphError, match="no edges"):
            solve_dimension(gds)
        with pytest.raises(EmptyGraphError, match="empty"):
            solve_dimension(GraphDirectedSystem(vertices=(), counts=()))

    def test_rejects_non_finite_tol(self, quad, quad_report):
        gds = build_graph(quad, build_partition(quad, quad_report))
        for tol in (math.inf, math.nan, 0.0, -1e-9):
            with pytest.raises(ValueError):
                solve_dimension(gds, tol)

    def test_exact_rational_root(self):
        # rho = 2 * 4**-s, so the dimension is exactly 1/2: the first midpoint
        # is the root itself, where no enclosure decides, so the ends are proved
        v = Vertex(1, Interval(F(0), F(1)), 1, F(1, 4))
        w = Vertex(2, Interval(F(2), F(3)), 2, F(1, 4))
        gds = GraphDirectedSystem(vertices=(v, w), counts=((1, 1), (1, 1)))
        for tol in (1e-9, 1e-12):
            lo, hi = solve_dimension(gds, tol).bracket
            assert lo <= F(1, 2) <= hi
            assert hi - lo <= F(tol)

    def test_known_miss_reduced_bracket(self):
        lo, hi = solve_dimension(known_miss_reduced(), 1e-12).bracket
        assert lo <= F("0.59061568915063755333") <= hi
        assert hi - lo <= F(1e-12)

    def test_uneven_bracket_at_tight_tolerance(self, uneven, uneven_report):
        gds = build_graph(uneven, build_partition(uneven, uneven_report))
        lo, hi = solve_dimension(gds, 1e-16).bracket
        assert lo <= F("0.58671219919039537789") <= hi
        assert hi - lo <= F(1e-16)


class TestFloatGuess:
    """The float secant search only proposes where the exact test runs; it proves nothing."""

    @pytest.fixture(scope="class")
    def cases(self, quad, uneven):
        systems = [solved_systems(quad)[0], *solved_systems(uneven), known_miss_reduced()]
        return [(gds, mpmath_dimension(gds.counts, [v.ratio for v in gds.vertices])) for gds in systems]

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize(
        "propose",
        [
            lambda root: 0.0,
            lambda root: 1.0,
            lambda root: math.nan,
            lambda root: root - 1e-6,
            lambda root: root + 1e-6,
            lambda root: -3.0,
            lambda root: 7.5,
            lambda root: math.inf,
        ],
        ids=["zero", "one", "nan", "below", "above", "under-lo", "over-hi", "inf"],
    )
    def test_any_proposal_ends_in_a_proved_bracket(self, cases, monkeypatch, propose, tol):
        for gds, root in cases:
            guess = propose(float(root))
            monkeypatch.setattr(overlapifs.dimension, "_float_guess", lambda *args: guess)
            assert_holds(solve_dimension(gds, tol).bracket, root, tol)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-15])
    def test_exact_step_budget(self, quad, noend, uneven, tol):
        rng = random.Random(2024)
        members = [quad, noend, uneven] + [random_unequal_member(rng) for _ in range(30)]
        for ifs in members:
            for gds in solved_systems(ifs):
                assert solve_dimension(gds, tol).iterations <= 4

    @pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-15])
    def test_float_elimination_budget(self, quad, noend, uneven, monkeypatch, tol):
        # A float bisection to tol/4 from [0, 1] takes about 42 eliminations at 1e-12.
        rng = random.Random(2024)
        members = [quad, noend, uneven] + [random_unequal_member(rng) for _ in range(30)]
        minor = overlapifs.dimension._minor
        floats = []

        def counted(matrix, bound, divide=operator.floordiv):
            floats.append(divide is operator.truediv)
            return minor(matrix, bound, divide)

        monkeypatch.setattr(overlapifs.dimension, "_minor", counted)
        for ifs in members:
            for gds in solved_systems(ifs):
                floats.clear()
                solve_dimension(gds, tol)
                assert 0 < sum(floats) <= 16

    @pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-15])
    def test_guess_lies_near_the_root(self, cases, tol):
        for gds, root in cases:
            assert abs(_float_guess(gds, 0.0, 1.0, tol) - root) <= tol / 4

    @pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-15])
    def test_bracket_ends_are_short_dyadic_rationals(self, cases, tol):
        # The width is a power of two no larger than tol, on a grid 16 times finer.
        for gds, root in cases:
            lo, hi = solve_dimension(gds, tol).bracket
            assert_holds((lo, hi), root, tol)
            for end in (lo, hi):
                assert end.denominator & (end.denominator - 1) == 0
                assert end.denominator <= 32 / tol

    def test_float_pivot_test_agrees_with_exact(self):
        rng = random.Random(77)
        compared = 0
        while compared < 300:
            n = rng.randint(1, 6)
            matrix = [[rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
            bound = rng.randint(1, 9)
            rho = max(abs(np.linalg.eigvals(np.array(matrix, dtype=float))))
            if abs(rho - bound) <= 1e-6:
                continue
            floats = [[float(x) for x in row] for row in matrix]
            assert _below(matrix, bound) == _below(floats, float(bound), operator.truediv)
            assert _below(matrix, bound) == (rho < bound)
            compared += 1


class TestReducedSystem:
    def test_quad_removes_both_switch_cells(self, quad, quad_report):
        part = build_partition(quad, quad_report)
        gds = build_graph(quad, part)
        red = reduced_system(quad, part, gds)
        assert [str(v.cell) for v in red.vertices] == [
            "[0, 4/25]", "[1/5, 9/25]", "[16/25, 4/5]", "[21/25, 1]",
        ]
        assert red.counts == QUAD_REDUCED

    def test_noend_removes_single_switch_cell(self, noend, noend_report):
        part = build_partition(noend, noend_report)
        gds = build_graph(noend, part)
        red = reduced_system(noend, part, gds)
        assert gds.size - red.size == 1
        removed = set(v.cell for v in gds.vertices) - set(v.cell for v in red.vertices)
        assert removed == {Interval(F(23, 50), F(1, 2))}
        assert red.counts == NOEND_REDUCED

    def test_reduced_quad_still_connected(self, quad, quad_report):
        part = build_partition(quad, quad_report)
        red = reduced_system(quad, part, build_graph(quad, part))
        assert strongly_connected(red)

    def test_all_switch_vertices_raises(self, quad, quad_report):
        part = build_partition(quad, quad_report)
        gds = build_graph(quad, part)
        only_switches = GraphDirectedSystem(
            vertices=(gds.vertices[1], gds.vertices[4]),
            counts=((1, 0), (0, 1)),
        )
        with pytest.raises(EmptyReducedSystemError):
            reduced_system(quad, part, only_switches)


class TestDot:
    def test_quad_reduced_golden(self, quad, quad_report):
        part = build_partition(quad, quad_report)
        red = reduced_system(quad, part, build_graph(quad, part))
        expected = """digraph coverage {
  rankdir=LR;
  v0 [label="0..4/25"];
  v1 [label="1/5..9/25"];
  v2 [label="16/25..4/5"];
  v3 [label="21/25..1"];
  v0 -> v0 [label="1"];
  v0 -> v1 [label="1"];
  v0 -> v2 [label="1"];
  v1 -> v1 [label="2"];
  v1 -> v2 [label="2"];
  v1 -> v3 [label="2"];
  v2 -> v0 [label="3"];
  v2 -> v1 [label="3"];
  v2 -> v2 [label="3"];
  v3 -> v1 [label="4"];
  v3 -> v2 [label="4"];
  v3 -> v3 [label="4"];
}
"""
        assert to_dot(red) == expected


class TestRandomMembers:
    def test_partition_graph_and_gap(self):
        for ifs, _plan in member_instances(seed=424242, count=8):
            report = validate(ifs)
            part = build_partition(ifs, report)
            gds = build_graph(ifs, part)
            assert strongly_connected(gds)
            full = solve_dimension(gds)
            red = solve_dimension(reduced_system(ifs, part, gds))
            assert red.value + 1e-8 < full.value

    def test_unequal_ratio_brackets_hold_the_root(self):
        rng = random.Random(2024)
        for _ in range(30):
            ifs = random_unequal_member(rng)
            report = validate(ifs)
            assert report.member
            part = build_partition(ifs, report)
            full = build_graph(ifs, part)
            for gds in (full, reduced_system(ifs, part, full)):
                root = mpmath_dimension(gds.counts, [v.ratio for v in gds.vertices])
                for tol in (1e-9, 1e-12):
                    assert_holds(solve_dimension(gds, tol).bracket, root, tol)


@pytest.mark.parametrize("module", ["overlapifs", "overlapifs.cli"])
def test_import_leaves_heavy_modules_out(module):
    # numpy is a test reference only; dataclasses would pull in inspect, ast and dis;
    # argparse (and gettext with it) is for main alone, not for parse_ifs_file
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    heavy = "{'numpy', 'dataclasses', 'inspect', 'argparse', 'gettext'}"
    code = f"import sys, {module}; print(*sorted({heavy} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []
