"""Validator, overlap parameter search, word composition and the end-pair case split."""

import random
import time
from fractions import Fraction as F
from functools import cache, reduce

import pytest

from conftest import (
    fold_value,
    fold_word,
    member_instances,
    noend_maps,
    quad_maps,
    random_member,
    random_unequal_member,
    uneven_maps,
)
from overlapifs import (
    AffineMap,
    Condition,
    Ifs,
    Interval,
    NestedImageError,
    Violation,
    evaluate,
    validate,
)
from overlapifs.system import compose_triples


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


@cache
def _word_systems() -> list[Ifs]:
    """The three checked-in systems and seeded members, equal-ratio and unequal."""
    rng = random.Random(23)
    systems = [Ifs.from_maps(maps()) for maps in (quad_maps, noend_maps, uneven_maps)]
    systems += [ifs for ifs, _ in member_instances(seed=23, count=4)]
    return systems + [random_unequal_member(rng) for _ in range(4)]


@cache
def _long_quad_word() -> tuple[int, ...]:
    """100,000 random digits of quad, a word the old one-digit-at-a-time fold took minutes on."""
    rng = random.Random(100_000)
    return tuple(rng.randint(1, 4) for _ in range(100_000))


class TestWordTriple:
    """``Ifs.word_triple`` composes a word by halves; ``compose_word`` and ``evaluate``
    read it. Each must equal ``fold_word``, the one-digit-at-a-time Fraction fold."""

    @pytest.mark.parametrize("index", range(len(_word_systems())))
    def test_matches_fraction_fold(self, index):
        ifs = _word_systems()[index]
        rng = random.Random(index)
        for length in (1, 2, 3, rng.randint(4, 100), rng.randint(100, 2000), 2000):
            word = tuple(rng.randint(1, ifs.m) for _ in range(length))
            ratio, offset = fold_word(ifs, word)
            a, b, c = ifs.word_triple(word)
            assert (F(a, c), F(b, c)) == (ratio, offset)
            assert ifs.compose_word(word) == AffineMap(ratio, offset)
            period = tuple(rng.randint(1, ifs.m) for _ in range(rng.randint(1, 6)))
            assert evaluate(ifs, word, period) == fold_value(ifs, word, period)
            assert evaluate(ifs, period[:1], word) == fold_value(ifs, period[:1], word)
        assert ifs.word_triple(()) == (1, 0, 1)
        assert evaluate(ifs, (), (1,)) == fold_value(ifs, (), (1,)) == ifs.hull.lo

    def test_error_texts(self, quad):
        with pytest.raises(ValueError, match=r"^empty word$"):
            quad.compose_word(())
        with pytest.raises(ValueError, match=r"^period word must be nonempty$"):
            evaluate(quad, (1,), ())
        for word in ((0,), (1, 5), (2, 3, -1, 4)):
            bad = next(d for d in word if not 1 <= d <= 4)
            for call in (quad.word_triple, quad.compose_word, lambda w: evaluate(quad, w, (1,))):
                with pytest.raises(ValueError, match=rf"^digit {bad} outside 1\.\.4$"):
                    call(word)
        with pytest.raises(ValueError, match=r"^digit 7 outside"):  # the period is read first
            evaluate(quad, (5,), (7,))

    def test_long_word_composes_and_evaluates_quickly(self, quad):
        word = _long_quad_word()
        start = time.perf_counter()
        composed = quad.compose_word(word)
        assert time.perf_counter() - start < 5
        start = time.perf_counter()
        value = evaluate(quad, word, (4,))
        assert time.perf_counter() - start < 5
        assert composed.ratio == F(1, 5**100_000)
        assert value == composed(F(1))  # the fixed point of map 4 is the hull's right end

    def test_split_equals_the_step_folded(self, quad):
        word = _long_quad_word()
        folded = reduce(compose_triples, [quad.integer_maps[d - 1] for d in word])
        assert quad.word_triple(word) == folded


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

    def test_leftmost_map_off_a_hand_built_hull(self):
        # from_maps takes the hull from the fixed points and sorts the map
        # fixing its left end first, so only a hand-built hull reaches this
        report = validate(Ifs(tuple(quad_maps()), Interval(F(-1), F(1))))
        assert report.violation == Violation(
            Condition.ORDERING, "leftmost map fixes 0, not the hull's left endpoint -1"
        )

    def test_image_leaves_a_hand_built_hull(self):
        # map 2 fixes 6/5, so from_maps would take [0, 6/5] as the hull and
        # report map 3 as not fixing its right end; on [0, 1] it leaves the hull
        maps = (
            AffineMap(F(1, 5), F(0)),
            AffineMap(F(1, 2), F(3, 5)),
            AffineMap(F(1, 10), F(9, 10)),
        )
        report = validate(Ifs(maps, Interval(F(0), F(1))))
        assert report.violation == Violation(Condition.ORDERING, "image of map 2 leaves the hull")
        assert "rightmost" in validate(Ifs.from_maps(maps)).violation.detail

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
    def test_quad_first_pair(self, quad_report):
        spec = quad_report.overlap_at(1)
        assert (spec.u, spec.v) == (1, 1)
        assert spec.overlap == Interval(F(4, 25), F(1, 5))
        assert spec.composed == AffineMap(F(1, 25), F(4, 25))

    def test_quad_gap_pair(self, quad_report):
        assert quad_report.overlap_at(2) is None
        assert quad_report.disjoint_pairs == (2,)

    def test_noend_middle_pair(self, noend_report):
        spec = noend_report.overlap_at(2)
        assert (spec.u, spec.v) == (1, 1)
        assert spec.composed == AffineMap(F(1, 25), F(23, 50))

    def test_uneven_pair_needs_two_step_tail(self, uneven, uneven_report):
        spec = uneven_report.overlap_at(1)
        assert (spec.u, spec.v) == (2, 1)
        assert spec.composed == uneven.compose_word((1, 3, 3))
        assert spec.composed == uneven.compose_word((2, 1))

    def test_identity_violation_reported(self):
        ifs = Ifs.from_maps(
            [
                AffineMap(F(1, 5), F(0)),
                AffineMap(F(1, 5), F(17, 100)),
                AffineMap(F(1, 5), F(4, 5)),
            ]
        )
        violation = validate(ifs).violation
        assert violation.condition is Condition.OVERLAP_IDENTITY
        assert violation.detail == (
            "pair (1, 2): right-tail search passed the overlap's left endpoint at u=2 "
            "(24/125 > 17/100)"
        )

    def test_validate_intersects_each_pair_once(self, monkeypatch):
        ifs = Ifs.from_maps(quad_maps())
        calls, intersect = [], Interval.intersect
        monkeypatch.setattr(Interval, "intersect", lambda a, b: calls.append(1) or intersect(a, b))
        report = validate(ifs)
        assert len(calls) == ifs.m - 1
        assert [(s.index, s.u, s.v) for s in report.overlaps] == [(1, 1, 1), (3, 1, 1)]

    @pytest.mark.parametrize("index", range(10))
    def test_report_matches_overlap_parameters(self, index):
        # Checked against the hull images themselves, not against validate's own path.
        ifs, _ = member_instances(29, 10)[index]
        report = validate(ifs)
        assert report.member
        for i in range(1, ifs.m):
            p, q = (ifs.map(d).apply_interval(ifs.hull) for d in (i, i + 1))
            lo, hi = max(p.lo, q.lo), min(p.hi, q.hi)
            spec = report.overlap_at(i)
            assert (lo > hi) == (i in report.disjoint_pairs) == (spec is None)
            if spec is not None:
                composed = ifs.compose_word((i,) + (ifs.m,) * spec.u)
                assert composed == ifs.compose_word((i + 1,) + (1,) * spec.v) == spec.composed
                assert composed.apply_interval(ifs.hull) == Interval(lo, hi) == spec.overlap

    def test_nested_images_raise_internal_error(self, monkeypatch):
        # Every containment holding makes validate's consequence check fire.
        monkeypatch.setattr(Interval, "contains_interval", lambda a, b: True)
        with pytest.raises(NestedImageError, match="image 1 contained in image 2"):
            validate(Ifs.from_maps(quad_maps()))


class TestEndCase:
    def test_quad_both_ends(self, quad_report):
        assert quad_report.left_overlaps and quad_report.right_overlaps

    def test_noend(self, noend_report):
        assert not noend_report.left_overlaps and not noend_report.right_overlaps

    def test_uneven_left_only(self, uneven_report):
        assert uneven_report.left_overlaps and not uneven_report.right_overlaps

    def test_non_member_reads_no_overlap(self):
        bad = validate(Ifs.from_maps([AffineMap(F(1, 5), F(0)), AffineMap(F(1, 5), F(4, 5))]))
        assert not bad.member
        assert (bad.left_overlaps, bad.right_overlaps) == (False, False)

    def test_census_matches_the_extreme_pairs(self, quad, noend, uneven, uneven_mirror):
        # the derived right end is pair m - 1, whatever the mix of overlaps and gaps
        rng = random.Random(20240901)
        systems = [quad, noend, uneven, uneven_mirror, *(random_member(rng)[0] for _ in range(40))]
        systems += [random_unequal_member(rng) for _ in range(10)]
        patterns = set()
        for ifs in systems:
            report = validate(ifs)
            assert report.member, report.violation
            ends = (report.overlap_at(1) is not None, report.overlap_at(ifs.m - 1) is not None)
            assert (report.left_overlaps, report.right_overlaps) == ends
            patterns.add(ends)
        assert patterns == {(True, True), (True, False), (False, True), (False, False)}


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
