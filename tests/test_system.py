"""Validator, overlap parameter search and the end-pair case split."""

import random
from fractions import Fraction as F

import pytest

from conftest import member_instances, noend_maps, quad_maps
from overlapifs import (
    AffineMap,
    Condition,
    Ifs,
    Interval,
    OverlapIdentityError,
    end_case,
    overlap_parameters,
    validate,
)


class TestIfs:
    @pytest.mark.parametrize(
        "maps",
        [
            quad_maps(),
            [AffineMap(F(1, 2), F(0)), AffineMap(F(1, 2), F(1, 2))],
            noend_maps(),
        ],
        ids=["quad", "two-halving-maps", "noend"],
    )
    def test_hull_spans_the_extreme_fixed_points(self, maps):
        assert Ifs.from_maps(maps).hull == Interval(F(0), F(1))

    def test_sorts_by_left_endpoint(self):
        shuffled = [quad_maps()[2], quad_maps()[0], quad_maps()[3], quad_maps()[1]]
        ifs = Ifs.from_maps(shuffled)
        assert [f.offset for f in ifs.maps] == [F(0), F(4, 25), F(16, 25), F(4, 5)]
        assert ifs.hull == Interval(F(0), F(1))

    def test_pieces(self, quad):
        assert quad.piece(1) == Interval(F(0), F(1, 5))
        assert quad.piece(2) == Interval(F(4, 25), F(9, 25))
        assert quad.piece(3) == Interval(F(16, 25), F(21, 25))
        assert quad.piece(4) == Interval(F(4, 5), F(1))

    def test_compose_word(self, quad):
        assert quad.compose_word((1, 4)) == AffineMap(F(1, 25), F(4, 25))
        assert quad.compose_word((2, 1)) == AffineMap(F(1, 25), F(4, 25))
        with pytest.raises(ValueError):
            quad.compose_word(())

    def test_digit_range(self, quad):
        with pytest.raises(ValueError):
            quad.map(0)
        with pytest.raises(ValueError):
            quad.map(5)


class TestValidateMembers:
    def test_quad(self, quad, quad_report):
        report = quad_report
        assert report.member
        assert [(s.index, s.u, s.v) for s in report.overlaps] == [(1, 1, 1), (3, 1, 1)]
        assert report.disjoint_pairs == (2,)
        assert report.u_max == 1 and report.v_max == 1
        first = report.overlap_at(1)
        assert first.overlap == Interval(F(4, 25), F(1, 5))
        assert first.composed == AffineMap(F(1, 25), F(4, 25))
        second = report.overlap_at(3)
        assert second.overlap == Interval(F(4, 5), F(21, 25))
        assert second.composed == AffineMap(F(1, 25), F(4, 5))

    def test_noend(self, noend, noend_report):
        report = noend_report
        assert report.member
        assert [(s.index, s.u, s.v) for s in report.overlaps] == [(2, 1, 1)]
        assert report.disjoint_pairs == (1, 3)
        assert report.overlap_at(2).overlap == Interval(F(23, 50), F(1, 2))
        assert report.overlap_at(2).composed == AffineMap(F(1, 25), F(23, 50))

    def test_uneven(self, uneven, uneven_report):
        report = uneven_report
        assert report.member
        assert [(s.index, s.u, s.v) for s in report.overlaps] == [(1, 2, 1)]
        assert report.disjoint_pairs == (2,)
        assert report.overlap_at(1).overlap == Interval(F(8, 81), F(1, 9))
        assert report.overlap_at(1).composed == AffineMap(F(1, 81), F(8, 81))

    def test_composed_image_equals_overlap(self, quad, quad_report):
        for spec in quad_report.overlaps:
            assert spec.composed.apply_interval(quad.hull) == spec.overlap

    def test_order_independent_and_deterministic(self, quad_report):
        shuffled = [quad_maps()[i] for i in (3, 1, 0, 2)]
        assert validate(Ifs.from_maps(shuffled)) == quad_report
        assert validate(Ifs.from_maps(quad_maps())) == quad_report

    def test_no_piece_contains_another(self, quad, noend, uneven):
        for ifs in (quad, noend, uneven):
            pieces = [ifs.piece(d) for d in range(1, ifs.m + 1)]
            for i, p in enumerate(pieces):
                for j, q in enumerate(pieces):
                    assert i == j or not q.contains_interval(p)


class TestValidateViolations:
    def test_two_maps_lack_adjacency_mix(self):
        ifs = Ifs.from_maps([AffineMap(F(1, 5), F(0)), AffineMap(F(1, 5), F(4, 5))])
        report = validate(ifs)
        assert not report.member
        assert report.violation.condition is Condition.ADJACENCY_MIX

    def test_single_map(self):
        ifs = Ifs.from_maps([AffineMap(F(1, 5), F(0))])
        report = validate(ifs)
        assert not report.member
        assert report.violation.condition is Condition.ADJACENCY_MIX

    def test_duplicate_left_endpoints(self):
        ifs = Ifs.from_maps([AffineMap(F(1, 5), F(0)), AffineMap(F(1, 4), F(0)),
                             AffineMap(F(1, 5), F(4, 5))])
        report = validate(ifs)
        assert not report.member
        assert report.violation.condition is Condition.ORDERING

    def test_last_map_does_not_fix_right_end(self):
        # rightmost-by-left-endpoint map has a smaller fixed point than the hull top
        ifs = Ifs.from_maps(
            [
                AffineMap(F(1, 2), F(0)),
                AffineMap(F(9, 10), F(1, 20)),
                AffineMap(F(1, 10), F(3, 10)),
            ]
        )
        report = validate(ifs)
        assert not report.member
        assert report.violation.condition is Condition.ORDERING
        assert "rightmost" in report.violation.detail

    def test_next_but_one_touching(self):
        # piece 1 ends exactly where piece 3 begins (both at 4/5)
        ifs = Ifs.from_maps(
            [
                AffineMap(F(4, 5), F(0)),
                AffineMap(F(1, 5), F(2, 5)),
                AffineMap(F(1, 5), F(4, 5)),
            ]
        )
        report = validate(ifs)
        assert not report.member
        assert report.violation.condition is Condition.SEPARATION

    def test_overlap_without_identity(self):
        # pieces (1,2) overlap on [17/100, 1/5] but no tail composition matches
        ifs = Ifs.from_maps(
            [
                AffineMap(F(1, 5), F(0)),
                AffineMap(F(1, 5), F(17, 100)),
                AffineMap(F(1, 5), F(4, 5)),
            ]
        )
        report = validate(ifs)
        assert not report.member
        assert report.violation.condition is Condition.OVERLAP_IDENTITY

    def test_single_point_overlap(self):
        # pair (2,3) touches in exactly one point, pair (1,2) genuinely overlaps
        ifs = Ifs.from_maps(
            [
                AffineMap(F(1, 5), F(0)),
                AffineMap(F(1, 5), F(4, 25)),
                AffineMap(F(1, 5), F(9, 25)),
                AffineMap(F(1, 5), F(4, 5)),
            ]
        )
        report = validate(ifs)
        assert not report.member
        assert report.violation.condition is Condition.OVERLAP_IDENTITY
        assert "single point" in report.violation.detail

    def test_only_gaps(self):
        ifs = Ifs.from_maps(
            [
                AffineMap(F(1, 5), F(0)),
                AffineMap(F(1, 5), F(2, 5)),
                AffineMap(F(1, 5), F(4, 5)),
            ]
        )
        report = validate(ifs)
        assert not report.member
        assert report.violation.condition is Condition.ADJACENCY_MIX

    def test_published_three_map_misprint_is_rejected(self):
        # maps x/q, x/q + 1, (x+q)/q make the last two identical, so the
        # left-endpoint chain cannot strictly increase
        q = 3
        ifs = Ifs.from_maps(
            [
                AffineMap(F(1, q), F(0)),
                AffineMap(F(1, q), F(1)),
                AffineMap(F(1, q), F(q, q)),
            ]
        )
        report = validate(ifs)
        assert not report.member
        assert report.violation.condition is Condition.ORDERING


class TestOverlapParameters:
    def test_quad_first_pair(self, quad):
        spec = overlap_parameters(quad, 1)
        assert (spec.u, spec.v) == (1, 1)
        assert spec.overlap == Interval(F(4, 25), F(1, 5))
        assert spec.composed == AffineMap(F(1, 25), F(4, 25))

    def test_quad_gap_pair(self, quad):
        assert overlap_parameters(quad, 2) is None

    def test_noend_middle_pair(self, noend):
        spec = overlap_parameters(noend, 2)
        assert (spec.u, spec.v) == (1, 1)
        assert spec.composed == AffineMap(F(1, 25), F(23, 50))

    def test_uneven_pair_needs_two_step_tail(self, uneven):
        spec = overlap_parameters(uneven, 1)
        assert (spec.u, spec.v) == (2, 1)
        assert spec.composed == uneven.compose_word((1, 3, 3))
        assert spec.composed == uneven.compose_word((2, 1))

    def test_index_range(self, quad):
        with pytest.raises(ValueError):
            overlap_parameters(quad, 0)
        with pytest.raises(ValueError):
            overlap_parameters(quad, 4)

    def test_identity_violation_raises(self):
        ifs = Ifs.from_maps(
            [
                AffineMap(F(1, 5), F(0)),
                AffineMap(F(1, 5), F(17, 100)),
                AffineMap(F(1, 5), F(4, 5)),
            ]
        )
        with pytest.raises(OverlapIdentityError):
            overlap_parameters(ifs, 1)


class TestEndCase:
    def test_quad_both_ends(self, quad, quad_report):
        case = end_case(quad, quad_report)
        assert case.tag == "end-overlap"
        assert case.left_overlaps and case.right_overlaps

    def test_noend(self, noend, noend_report):
        case = end_case(noend, noend_report)
        assert case.tag == "no-end-overlap"
        assert not case.left_overlaps and not case.right_overlaps

    def test_uneven_left_only(self, uneven, uneven_report):
        case = end_case(uneven, uneven_report)
        assert case.tag == "end-overlap"
        assert case.left_overlaps and not case.right_overlaps

    def test_requires_member(self, quad):
        bad = validate(Ifs.from_maps([AffineMap(F(1, 5), F(0)), AffineMap(F(1, 5), F(4, 5))]))
        with pytest.raises(ValueError):
            end_case(quad, bad)


class TestRandomInstances:
    def test_recipe_yields_members_with_planned_tails(self):
        for ifs, plan in member_instances(seed=20240817, count=20):
            report = validate(ifs)
            assert report.member, report.violation
            overlap_tails = {s.index: (s.u, s.v) for s in report.overlaps}
            for pair, w in enumerate(plan, start=1):
                if w is None:
                    assert pair in report.disjoint_pairs
                else:
                    assert overlap_tails[pair] == (w, w)
            assert validate(ifs) == report

    def test_search_terminates_on_perturbed_systems(self):
        # breaking the composed-image identity must still terminate, with
        # a clean verdict rather than a runaway search
        rng = random.Random(99)
        for ifs, plan in member_instances(seed=7, count=12):
            offsets = [f.offset for f in ifs.maps]
            idx = rng.randrange(1, len(offsets))
            bumped = offsets[:]
            bumped[idx] += F(1, rng.choice([10**4, 10**5, 7919]))
            try:
                perturbed = Ifs.from_maps(
                    [AffineMap(f.ratio, b) for f, b in zip(ifs.maps, bumped)]
                )
            except ValueError:
                continue
            report = validate(perturbed)
            assert report.member in (True, False)
