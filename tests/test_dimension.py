"""Partition, cell digraph, spectral radius and the dimension solver."""

import ast
import decimal
import io
import json
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
import overlapifs.verify
from conftest import (
    member_instances,
    mpmath_dimension,
    no_end_member,
    random_member,
    random_unequal_member,
    reference_partition_graph,
    row_merged,
    strongly_connected,
)
from overlapifs import (
    AffineMap,
    CoverViolationError,
    EmptyGraphError,
    EmptyReducedSystemError,
    GraphDirectedSystem,
    Ifs,
    InternalError,
    Interval,
    OverlapSpec,
    Partition,
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
from overlapifs.cli import main, parse_ifs_file
from overlapifs.dimension import _below, _float_guess, _log, _lumped, _minor
from overlapifs.system import DEFAULT_TOL

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


QUAD_POINTS = (F(0), F(4, 25), F(1, 5), F(9, 25), F(16, 25), F(4, 5), F(21, 25), F(1))


def split_quad(quad, quad_report):
    """quad's partition with a cut point 1/10 splitting its first cell: map 1
    takes [0, 1/10] back to [0, 1/2], and 1/2 is no cut point."""
    part = build_partition(quad, quad_report)
    return Partition(
        tuple(sorted(part.points + (F(1, 10),))),
        ((1, 1), (2, 1), (3, 1), (4, 2), (6, 3), (7, 3), (8, 4)),
        (3, 7),
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


def fraction_det(gds, weight):
    """det(I - diag(w)·counts) in Fractions by Gaussian elimination, w = weight[ratio] per row."""
    rows = zip(gds.vertices, gds.counts)
    a = [[F(p == q) - weight[v.ratio] * x for q, x in enumerate(row)] for p, (v, row) in enumerate(rows)]
    det = F(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return F(0)
        if pivot != k:
            a[k], a[pivot], det = a[pivot], a[k], -det
        det *= a[k][k]
        for row in a[k + 1 :]:
            factor = row[k] / a[k][k]
            for j in range(k, len(a)):
                row[j] -= factor * a[k][j]
    return det


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
        assert part.points == QUAD_POINTS
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

    def test_window_off_the_cut_points_raises(self, quad, quad_report):
        with pytest.raises(PartitionInvariantError, match=r"cell \[0, 1/10\] under map 1 does not end"):
            build_graph(quad, split_quad(quad, quad_report))

    @pytest.mark.parametrize("command", [["partition"], ["dim"], ["verify", "--theorem", "3"]])
    def test_every_command_checks_closure(self, quad, quad_report, data_dir, monkeypatch, capsys, command):
        # build_partition leaves the closure of the cut points to build_graph,
        # so every command that builds a partition must still refuse split_quad's cut points
        split = split_quad(quad, quad_report)
        for module in (overlapifs.dimension, overlapifs.verify):
            monkeypatch.setattr(module, "build_partition", lambda ifs, report: split)
        out = io.StringIO()
        assert main([command[0], str(data_dir / "quad.ifs"), *command[1:]], out) == 2
        error = "error: the inverse image of cell [0, 1/10] under map 1 does not end at cut points"
        assert error in out.getvalue().splitlines()
        assert "Traceback" not in out.getvalue() + capsys.readouterr().err

    def test_gap_inside_an_image_raises(self, quad):
        # without cell (2, 1), pair 2 is a gap inside map 1's image [0, 1/5]
        cells = ((1, 1), (3, 2), (5, 3), (6, 3), (7, 4))
        match = r"gap \[4/25, 1/5\] meets the image of map 1 beyond endpoints"
        with pytest.raises(CoverViolationError, match=match):
            build_graph(quad, Partition(QUAD_POINTS, cells, (6,)))

    def test_cell_outside_the_images_raises(self, quad):
        # cell (4, 2) turns the gap between images 2 and 3 into a cell that no image holds
        cells = ((1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 4))
        match = r"do not cover the union of hull images: \['\[9/25, 16/25\]'\] lie outside it"
        with pytest.raises(CoverViolationError, match=match):
            build_graph(quad, Partition(QUAD_POINTS, cells, (2, 6)))

    def test_image_end_off_the_cut_points_raises(self, quad, quad_report):
        # without the cut point 1/5, map 1's hull image [0, 1/5] ends inside a pair
        points = tuple(p for p in build_partition(quad, quad_report).points if p != F(1, 5))
        merged = Partition(points, ((1, 1), (2, 2), (4, 3), (5, 3), (6, 4)), (5,))
        with pytest.raises(CoverViolationError, match=r"image \[0, 1/5\] of map 1 does not end"):
            build_graph(quad, merged)

    def test_matches_fraction_reference(self, quad, noend, uneven):
        rng = random.Random(2525)
        members = [quad, noend, uneven, *(random_member(rng)[0] for _ in range(30))]
        members += [random_unequal_member(rng) for _ in range(30)]
        for ifs in members:
            report = validate(ifs)
            part, gds = reference_partition_graph(ifs, report)
            assert build_partition(ifs, report) == part
            assert build_graph(ifs, part) == gds


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


class TestLumped:
    """Vertices of equal ratio and equal row, or equal column, merge for the exact tests,
    which keeps every bracket."""

    @pytest.fixture(scope="class")
    def systems(self, quad, noend, uneven):
        members = [quad, noend, uneven, *(no_end_member(random.Random(m), m) for m in (16, 32))]
        return [gds for ifs in members for gds in solved_systems(ifs)]

    def test_merged_sizes(self, quad, noend, uneven):
        assert [_lumped(solved_systems(ifs)[0]).size for ifs in (quad, noend, uneven)] == [3, 2, 3]
        reduced = solved_systems(uneven)[1]
        assert _lumped(reduced) is reduced

    def test_determinant_kept(self, systems):
        # det(I - diag(w)·C) at one weight per ratio: the merge keeps it, transposed or not.
        rng = random.Random(31)
        for gds in systems:
            merged = _lumped(gds)
            assert merged.size <= gds.size
            ratios = {v.ratio for v in gds.vertices}
            for _ in range(3):
                weight = {r: F(rng.randint(1, 40), rng.randint(1, 40)) for r in ratios}
                assert fraction_det(gds, weight) == fraction_det(merged, weight)

    def test_identity_keeps_bracket_and_iterations(self, systems, monkeypatch):
        lumped = [solve_dimension(gds) for gds in systems]
        monkeypatch.setattr(overlapifs.dimension, "_lumped", lambda gds: gds)
        for gds, result in zip(systems, lumped):
            whole = solve_dimension(gds)
            assert (whole.bracket, whole.iterations) == (result.bracket, result.iterations)


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

    def test_one_elimination_per_predicted_test(self, quad, noend, uneven, monkeypatch):
        # The enclosure for the side the float guess predicts runs first and decides. The
        # other one runs too only for an end between the guess and s*, as the guess is
        # only within tol/8 of s*.
        rng = random.Random(2024)
        members = [quad, noend, uneven] + [random_unequal_member(rng) for _ in range(30)]
        module = overlapifs.dimension
        minor, power_bounds, float_guess = module._minor, module._power_bounds, module._float_guess
        exact, ends, guesses = [], [], []

        def counted(matrix, bound, divide=operator.floordiv, weights=None):
            exact.append(divide is operator.floordiv and weights is not None)
            return minor(matrix, bound, divide, weights)

        def recorded(ratios, digits, shift):
            bounds = power_bounds(ratios, digits, shift)
            return lambda n: ends.append(F(n, 1 << shift)) or bounds(n)

        monkeypatch.setattr(module, "_minor", counted)
        monkeypatch.setattr(module, "_power_bounds", recorded)
        monkeypatch.setattr(module, "_float_guess", lambda *args: guesses.append(float_guess(*args)) or guesses[-1])
        tests = mispredicted = 0
        for ifs in members:
            for gds in solved_systems(ifs):
                exact.clear()
                ends.clear()
                result = solve_dimension(gds, 1e-12)
                lo, guess = result.bracket[0], F(guesses[-1])
                wrong = sum((s <= guess) != (s <= lo) for s in ends)
                assert len(ends) == result.iterations - 1
                assert sum(exact) == len(ends) + wrong
                tests, mispredicted = tests + len(ends), mispredicted + wrong
        assert 8 * mispredicted <= tests  # 8 of 132 here

    @pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-15])
    def test_float_elimination_budget(self, quad, noend, uneven, monkeypatch, tol):
        # A float bisection to tol/4 from [0, 1] takes about 42 eliminations at 1e-12.
        rng = random.Random(2024)
        members = [quad, noend, uneven] + [random_unequal_member(rng) for _ in range(30)]
        minor = overlapifs.dimension._minor
        floats = []

        def counted(matrix, bound, divide=operator.floordiv, weights=None):
            floats.append(divide is operator.truediv)
            return minor(matrix, bound, divide, weights)

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
        # The bracket is a cell of width w, the largest power of two not above
        # tol, and its ends are odd multiples of w/2.
        half = F(2) ** (math.frexp(tol)[1] - 2)
        for gds, root in cases:
            lo, hi = solve_dimension(gds, tol).bracket
            assert_holds((lo, hi), root, tol)
            assert hi - lo == 2 * half
            for end in (lo, hi):
                assert (end / half).denominator == 1
                assert (end / half).numerator % 2 == 1

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
            # Row weights applied inside the elimination give what the weighted matrix gives.
            ints = [rng.randint(0, 5) for _ in range(n)]
            weighted = [[w * x for x in row] for w, row in zip(ints, matrix)]
            assert _minor(matrix, bound, operator.floordiv, ints) == _minor(weighted, bound)
            reals = [rng.uniform(0.0, 2.0) for _ in range(n)]
            weighted = [[w * x for x in row] for w, row in zip(reals, floats)]
            assert _minor(floats, float(bound), operator.truediv, reals) == _minor(
                weighted, float(bound), operator.truediv
            )
            compared += 1


def one_vertex(ratio: str, count: int) -> GraphDirectedSystem:
    """One vertex with a loop of the given count, so s* = log(count) / log(1/ratio)."""
    return GraphDirectedSystem((Vertex(1, Interval(F(0), F(1)), 1, F(ratio)),), ((count,),))


def counted_logs(monkeypatch) -> list:
    """Clear ``_log``'s memo and record each ``ln`` the solver computes as (argument, precision)."""
    calls = []

    class Counting(decimal.Context):
        def ln(self, x):
            calls.append((x, self.prec))
            return super().ln(x)

    monkeypatch.setattr(overlapifs.dimension, "Context", Counting)
    _log.cache_clear()
    return calls


def conjugate(ifs: Ifs, rng: random.Random) -> Ifs:
    """``ifs`` seen through a seeded change of coordinates y = a x + c: same ratios and counts."""
    a, c = F(rng.randint(1, 30), rng.randint(2, 9)), F(rng.randint(-20, 20), rng.randint(2, 17))
    return Ifs.from_maps([AffineMap(f.ratio, a * f.offset + c * (1 - f.ratio)) for f in ifs.maps])


def undecided_bounds(ratios, digits, shift):
    """``_power_bounds`` whose enclosures never decide a test: every r**s lies in [0, 10**digits]."""
    return lambda n: ([0] * len(ratios), [10 ** (2 * digits)] * len(ratios))


class TestCanonicalCell:
    """The bracket is the cell [(k - 1/2)·w, (k + 1/2)·w] that holds s*, cut to [0, h]: a
    function of the system and tol alone, whatever the float guess and the precision."""

    @pytest.fixture(scope="class")
    def graphs(self, quad, noend, uneven):
        rng = random.Random(5)
        members = [quad, noend, uneven, *(random_member(rng)[0] for _ in range(30))]
        members += [random_unequal_member(rng) for _ in range(30)]
        members += [no_end_member(random.Random(m), m) for m in (16, 32)]
        return [gds for ifs in members for gds in solved_systems(ifs)]

    @pytest.fixture(scope="class")
    def roots(self, graphs):
        # The reference takes seconds on each graph of the no-end members (TestLargeMembers).
        return [mpmath_dimension(gds.counts, [v.ratio for v in gds.vertices]) for gds in graphs[:-4]]

    @pytest.mark.parametrize("tol,budget", [(1e-12, 4), (1e-16, 6), (1e-18, 18)])
    def test_exact_test_budget(self, graphs, roots, tol, budget):
        # Below float resolution the search starts from the float guess's spacing.
        for k, gds in enumerate(graphs):
            result = solve_dimension(gds, tol)
            assert result.iterations <= budget
            if k < len(roots):
                assert_holds(result.bracket, roots[k], tol)

    @pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-16, 1e-18])
    @pytest.mark.parametrize(
        "ratio,count,root", [("1/4", 2, F(1, 2)), ("1/9", 3, F(1, 2)), ("1/16", 2, F(1, 4))]
    )
    def test_dyadic_graphs_take_three_tests(self, ratio, count, root, tol):
        # A float guess that is exact is confirmed by its cell's two ends.
        result = solve_dimension(one_vertex(ratio, count), tol)
        lo, hi = result.bracket
        assert lo < root < hi
        assert hi - lo <= F(tol)
        assert result.iterations == 3

    @pytest.mark.parametrize("which", ["E", "U1"])
    @pytest.mark.parametrize("name", ["quad", "noend", "uneven"])
    def test_guess_inside_the_cell_gives_identical_json(self, data_dir, tmp_path, monkeypatch, name, which):
        golden = data_dir / "golden" / f"dim-{which}-{name}.json"
        bracket = json.loads(golden.read_text())["dimension"]["bracket"]
        lo, hi = (F(bracket[end]["exact"]) for end in ("lo", "hi"))
        report = tmp_path / "dim.json"
        for guess in (lo + (hi - lo) / 5, hi - (hi - lo) / 7):
            monkeypatch.setattr(overlapifs.dimension, "_float_guess", lambda *args, g=float(guess): g)
            argv = ["dim", str(data_dir / f"{name}.ifs"), "--set", which, "--json", str(report)]
            assert main(argv, io.StringIO()) == 0
            assert report.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("cells", [-9, -3, -2, 2, 3, 9])
    def test_guess_cells_away_gives_the_same_bracket(self, quad, noend, uneven, monkeypatch, cells):
        width = F(2) ** (math.frexp(DEFAULT_TOL)[1] - 1)
        for gds in (g for ifs in (quad, noend, uneven) for g in solved_systems(ifs)):
            result = solve_dimension(gds)
            guess = float(sum(result.bracket) / 2 + cells * width)
            monkeypatch.setattr(overlapifs.dimension, "_float_guess", lambda *args: guess)
            assert solve_dimension(gds).bracket == result.bracket
            monkeypatch.undo()

    @pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-16, 0.5])
    def test_zero_dimension_is_not_cut_below_zero(self, tol):
        # s* = 0 lies in the cell [-w/2, w/2], which [0, h] cuts to [0, w/2].
        result = solve_dimension(one_vertex("1/3", 1), tol)
        assert result.bracket == (0, F(2) ** (math.frexp(tol)[1] - 2))

    @pytest.mark.parametrize("tol", [2.0, 10.0, 1000.0, 1e10, 1e300])
    def test_coarse_tolerances(self, quad, noend, uneven, tol):
        # w/2 is at least 1 here, so every end is an integer, and the bracket is cut to
        # [0, h]. The float search stays in [0, h] too, where no r**s overflows.
        assert solve_dimension(one_vertex("1/3", 1), tol).bracket == (0, 1)
        for gds in (g for ifs in (quad, noend, uneven) for g in solved_systems(ifs)):
            lo, hi = solve_dimension(gds, tol).bracket
            fine_lo, fine_hi = solve_dimension(gds).bracket
            assert 0 == lo <= fine_lo < fine_hi <= hi <= 2
            assert (hi - lo).denominator == 1

    def test_undecided_test_runs_again_at_twice_the_precision(self, quad, monkeypatch):
        gds, real, precisions = solved_systems(quad)[0], overlapifs.dimension._power_bounds, []

        def first_undecided(ratios, digits, shift):
            precisions.append(digits)
            return (undecided_bounds if len(precisions) == 1 else real)(ratios, digits, shift)

        plain = solve_dimension(gds)
        monkeypatch.setattr(overlapifs.dimension, "_power_bounds", first_undecided)
        raised = solve_dimension(gds)
        assert precisions == [16, 32]
        assert raised.bracket == plain.bracket
        assert raised.iterations == plain.iterations + 1

    def test_cold_solves_compute_each_log_once(self, uneven, monkeypatch):
        # uneven's ratios 1/9 and 1/3 at the 26-digit working precision of tol 1e-12;
        # computing them in every solve would take 20 logs.
        members = [uneven, *(conjugate(uneven, random.Random(seed)) for seed in range(4))]
        graphs = [gds for ifs in members for gds in solved_systems(ifs)]
        calls = counted_logs(monkeypatch)
        for gds in graphs:
            solve_dimension(gds)
        ctx = decimal.Context(prec=26)
        assert sorted(calls) == [(ctx.divide(1, 9), 26), (ctx.divide(1, 3), 26)]

    @pytest.mark.parametrize("tol", [1e-12, 1e-16])
    def test_cold_and_warm_memo_give_identical_results(self, graphs, tol):
        cold = []
        for gds in graphs:
            _log.cache_clear()
            cold.append(solve_dimension(gds, tol))
        for gds, result in zip(graphs, cold):
            solve_dimension(gds, tol)
            misses = _log.cache_info().misses
            warm = solve_dimension(gds, tol)
            assert _log.cache_info().misses == misses
            assert (warm.bracket, warm.iterations) == (result.bracket, result.iterations)

    def test_logs_are_kept_per_precision(self, quad, monkeypatch):
        # 16 digits at 1e-12 and 22 at 1e-18, each with 10 working digits more; a
        # doubled precision of 32 digits takes its own log too.
        gds = solved_systems(quad)[0]
        fine = solve_dimension(gds, 1e-18)
        calls = counted_logs(monkeypatch)
        solve_dimension(gds, 1e-12)
        assert solve_dimension(gds, 1e-18) == fine
        real, undecided = overlapifs.dimension._power_bounds, []

        def first_undecided(ratios, digits, shift):
            undecided.append(digits)
            return (undecided_bounds if len(undecided) == 1 else real)(ratios, digits, shift)

        monkeypatch.setattr(overlapifs.dimension, "_power_bounds", first_undecided)
        solve_dimension(gds, 1e-12)
        assert [prec for _, prec in calls] == [26, 32, 42]
        assert {x for x, _ in calls} == {decimal.Decimal(1) / 5}

    def test_cell_end_with_an_irrational_power_raises_internal_error(self):
        # Counts of radius sqrt(2) with ratio 1/2 put s* = 1/2 on a cell end at w = 1,
        # where (1/2)**(1/2) is irrational: no enclosure and no exact weight decides.
        cell = Interval(F(0), F(1))
        gds = GraphDirectedSystem(tuple(Vertex(i, cell, 1, F(1, 2)) for i in (1, 2)), ((0, 2), (1, 0)))
        with pytest.raises(InternalError, match="256 digits"):
            solve_dimension(gds, 1.0)

    def test_precision_cap_raises_internal_error(self, quad, data_dir, monkeypatch):
        precisions = []

        def never_decided(ratios, digits, shift):
            precisions.append(digits)
            return undecided_bounds(ratios, digits, shift)

        monkeypatch.setattr(overlapifs.dimension, "_power_bounds", never_decided)
        with pytest.raises(InternalError, match="decides the dimension test"):
            solve_dimension(solved_systems(quad)[0])
        assert precisions == [16 << k for k in range(7)]
        out = io.StringIO()
        assert main(["dim", str(data_dir / "quad.ifs")], out) == 2
        assert out.getvalue().startswith("error: no enclosure")

    def test_dimension_on_a_cell_end_is_decided_exactly(self):
        # s* is the end between two cells (1/2 when w = 1, 1/4 when w = 1/2), where no
        # enclosure decides; every r**s there is rational, so the radius 1 is proved
        # exactly and s* is the bracket's lower end, cut to [0, h] with h = 1.
        cases = [
            ("1/4", 2, 1.0, (F(1, 2), F(1))),
            ("1/9", 3, 1.0, (F(1, 2), F(1))),
            ("1/16", 2, 0.5, (F(1, 4), F(3, 4))),
        ]
        for ratio, count, tol, bracket in cases:
            result = solve_dimension(one_vertex(ratio, count), tol)
            assert result.bracket == bracket
            assert result.iterations <= 3


class TestLargeMembers:
    """The seeded no-end members with 16, 32 and 64 maps, at the default tol."""

    @pytest.mark.parametrize("m", [16, 32, 64])
    def test_exact_test_budget_and_root(self, m):
        for gds in solved_systems(no_end_member(random.Random(m), m)):
            result = solve_dimension(gds)
            assert result.iterations <= 4
            # The reference takes seconds on the whole graph past m = 16; its own row
            # merge has the same radius at every s and shares no code with ``_lumped``.
            ref = (gds.counts, [v.ratio for v in gds.vertices])
            ref = ref if m == 16 else row_merged(*ref)
            assert_holds(result.bracket, mpmath_dimension(*ref), DEFAULT_TOL)


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


# numpy is a test reference only; dataclasses would pull in inspect, ast and dis;
# argparse (and gettext with it) is for main alone, not for parse_ifs_file
HEAVY = {"numpy", "dataclasses", "inspect", "argparse", "gettext"}
PARSING = {"cli", "exact", "system"}
# What each start-up may run: a statement, or a command line given to main, and
# the program modules it executes. json is for --json alone.
STARTS = {
    "overlapifs": ("import overlapifs", set()),
    "overlapifs.cli": ("import overlapifs.cli", PARSING),
    "validate": (["validate", "quad.ifs"], PARSING),
    "validate-json": (["validate", "quad.ifs", "--json", "out.json"], PARSING),
    "partition": (["partition", "quad.ifs"], PARSING | {"dimension"}),
    "dim": (["dim", "uneven.ifs", "--set", "U1"], PARSING | {"dimension"}),
    "classify": (["classify", "quad.ifs", "--point", "w=2;p=4"], PARSING | {"codings"}),
    "witness": (["witness", "noend.ifs", "--target", "finite:2"], PARSING | {"codings"}),
    "verify": (
        ["verify", "quad.ifs", "--theorem", "1"],
        PARSING | {"codings", "dimension", "verify"},
    ),
}


@pytest.mark.parametrize("start", list(STARTS))
def test_import_leaves_heavy_modules_out(start, data_dir, tmp_path):
    # Run in a fresh interpreter. A module still waiting in sys.modules for its
    # first use is not a plain module, so the plain ones are those that ran.
    run, executed = STARTS[start]
    heavy = HEAVY
    if isinstance(run, list):
        argv = [str(data_dir / a) if a.endswith(".ifs") else a for a in run]
        run = f"import io; from overlapifs.cli import main; assert main({argv!r}, io.StringIO()) == 0"
        heavy = HEAVY - {"argparse", "gettext"}
    ran = "[k for k, m in sys.modules.items() if type(m) is types.ModuleType]"
    code = f"import sys, types; {run}; print({ran})"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    loaded = set(ast.literal_eval(result.stdout))
    assert {name[len("overlapifs."):] for name in loaded if name.startswith("overlapifs.")} == executed
    assert not heavy & loaded
    assert ("json" in loaded) == (start == "validate-json")
