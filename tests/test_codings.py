"""Coding engine: evaluation, residual graphs, classification, witnesses."""

import math
import random
import re
import time
from collections import Counter
from fractions import Fraction as F
from functools import cache

import pytest

import overlapifs.codings
from conftest import (
    admissible_digits,
    contains,
    noend_maps,
    oracle_classify,
    prefix_count_series,
    quad_maps,
    random_member,
    random_unequal_member,
    reference_codings,
    reference_facts,
    reference_residual_graph,
    sweep_words,
    uneven_maps,
)
from overlapifs import (
    AffineMap,
    Cardinality,
    Ifs,
    PointNotInAttractorError,
    SymbolicPoint,
    UnreachableTargetError,
    WitnessVerificationError,
    build_residual_graph,
    classify_cardinality,
    classify_many,
    enumerate_codings,
    evaluate,
    make_witness,
    symbolic_point,
    validate,
)
from overlapifs.codings import _facts
from overlapifs.system import DEFAULT_MAX_DEPTH, DEFAULT_MAX_NODES


class TestEvaluate:
    def test_fixed_point_of_last_map(self, quad):
        assert evaluate(quad, (), (4,)) == F(1)

    def test_preperiod_then_tail(self, quad):
        assert evaluate(quad, (1,), (4,)) == F(1, 5)

    def test_two_digit_period(self, quad):
        assert evaluate(quad, (), (1, 4)) == F(1, 6)

    def test_rotation_with_consistent_preperiod(self, quad):
        assert evaluate(quad, (), (1, 4)) == evaluate(quad, (1,), (4, 1))
        assert evaluate(quad, (2,), (1, 4)) == evaluate(quad, (2, 1), (4, 1))

    def test_digit_validation(self, quad):
        with pytest.raises(ValueError):
            evaluate(quad, (0,), (4,))
        with pytest.raises(ValueError):
            evaluate(quad, (), (5,))
        with pytest.raises(ValueError):
            evaluate(quad, (1,), ())

    def test_symbolic_point_carries_value(self, quad):
        p = symbolic_point(quad, (1, 4, 2), (4,))
        assert p.value == F(109, 625)
        assert str(p) == "w=1,4,2;p=4"

    def test_brief_cuts_only_long_words(self, quad):
        p = symbolic_point(quad, (1, 4, 2), (4,))
        assert p.brief() == p.brief(2) == str(p)
        # a word is cut only where the cut is shorter: 25 and 32 digits are not
        for n in (25, 32):
            word = symbolic_point(quad, (1,) + (4,) * (n - 2) + (2,), (1, 2, 3))
            assert word.brief() == word.brief(None) == str(word)
        long = symbolic_point(quad, (1,) + (4,) * 40 + (2,), (1, 2, 3))
        assert long.brief() == (
            "w=1,4,4,4,4,4,4,4,4,4,4,4 ...(18 digits left out)... 4,4,4,4,4,4,4,4,4,4,4,2;p=1,2,3"
        )
        assert long.brief(1) == "w=1 ...(40 digits left out)... 2;p=1,2,3"
        assert long.brief(0) == "w= ...(42 digits left out)... ;p=1,2,3"

    def test_parse_round_trip(self, quad):
        p = SymbolicPoint.parse("w=1,4,2;p=4", quad)
        assert p == symbolic_point(quad, (1, 4, 2), (4,))
        q = SymbolicPoint.parse("w=;p=1,4", quad)
        assert q.value == F(1, 6)

    @pytest.mark.parametrize("text", ["", "w=1", "p=4;w=1", "w=1;p=", "w=a;p=4", "w=1;p=4;x=2"])
    def test_parse_rejects(self, text, quad):
        with pytest.raises(ValueError):
            SymbolicPoint.parse(text, quad)


def digits(ifs, x):
    """The walk's integer hull test on x: the digits its expansion labels,
    in a residual store built with no roots and given x as residual 0
    directly, so x skips the root's hull check."""
    res = overlapifs.codings._Residuals(ifs, [], 1, 1)
    res.pairs.append((x.numerator, x.denominator))
    res.succ.append(None)
    res.successors(0)
    return res.labels[0]


class TestAdmissibleDigits:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (F(1, 5), [1, 2]),
            (F(1, 2), []),
            (F(0), [1]),
            (F(1), [4]),
            (F(5, 6), [3, 4]),
            (F(9, 25), [2]),
        ],
    )
    def test_quad(self, quad, x, expected):
        assert digits(quad, x) == admissible_digits(quad, x) == expected


def _conjugate(maps, a, c):
    """The system seen through y = a x + c: each map r x + b becomes r y + a b + c (1 - r)."""
    return [AffineMap(f.ratio, a * f.offset + c * (1 - f.ratio)) for f in maps]


def _hull_test_systems():
    """Checked-in systems, seeded members, a negative hull, and two non-members."""
    rng = random.Random(23)
    systems = [Ifs.from_maps(maps()) for maps in (quad_maps, noend_maps, uneven_maps)]
    systems += [random_member(rng)[0] for _ in range(4)]
    systems += [random_unequal_member(rng) for _ in range(4)]
    systems.append(Ifs.from_maps(_conjugate(uneven_maps(), F(7, 3), F(-13, 6))))
    # Non-members: three images share the point 1/2; one image lies inside another.
    systems.append(Ifs.from_maps([AffineMap(F(1, 2), F(k, 4)) for k in range(3)]))
    nested = [AffineMap(F(1, 2), F(0)), AffineMap(F(1, 7), F(1, 7)), AffineMap(F(1, 3), F(2, 3))]
    systems.append(Ifs.from_maps(nested))
    return systems


HULL_SYSTEMS = _hull_test_systems()
NEGATIVE_HULL, THREE_IMAGES = HULL_SYSTEMS[11], HULL_SYSTEMS[12]


class TestAdmissibleDigitsDifferential:
    """The integer hull test equals a Fraction scan over the pieces, the
    assertion on three or more images included."""

    @staticmethod
    def check(ifs, x):
        expected = admissible_digits(ifs, x)
        if len(expected) > 2:
            with pytest.raises(AssertionError, match=f"lies in {len(expected)} images"):
                digits(ifs, x)
        else:
            assert digits(ifs, x) == expected

    @pytest.mark.parametrize("ifs", HULL_SYSTEMS)
    def test_endpoints_and_neighbours(self, ifs):
        ends = {e for iv in (ifs.hull, *ifs.pieces) for e in (iv.lo, iv.hi)}
        for e in ends:
            self.check(ifs, e)
            for k in range(1, 8):
                self.check(ifs, e - F(1, 10**k))
                self.check(ifs, e + F(1, 10**k))

    @pytest.mark.parametrize("index", range(len(HULL_SYSTEMS)))
    def test_random_rationals(self, index):
        ifs, rng = HULL_SYSTEMS[index], random.Random(index)
        lo, hi = ifs.hull.lo - 1, ifs.hull.hi + 1
        for _ in range(300):
            den = rng.randint(1, 10 ** rng.randint(1, 12))
            self.check(ifs, lo + (hi - lo) * F(rng.randint(0, den), den))

    def test_three_images_still_assert(self):
        with pytest.raises(AssertionError, match="point 1/2 lies in 3 images"):
            digits(THREE_IMAGES, F(1, 2))

    def test_hull_check_is_closed(self):
        lo, hi = NEGATIVE_HULL.hull.lo, NEGATIVE_HULL.hull.hi
        assert lo < 0
        assert classify_many(NEGATIVE_HULL, [lo, hi]) == [Cardinality.finite(1)] * 2
        for k in (1, 6, 30):
            for x in (lo - F(1, 10**k), hi + F(1, 10**k)):
                with pytest.raises(PointNotInAttractorError, match="outside the hull"):
                    classify_many(NEGATIVE_HULL, [x])


class TestResidualGraph:
    def test_countable_point(self, quad):
        g = build_residual_graph(quad, F(1, 5))
        assert g.exhausted and g.unexpanded == set()
        assert g.adjacency == {F(1, 5): {1: F(1), 2: F(1, 5)}, F(1): {4: F(1)}}

    def test_right_endpoint_self_loop(self, quad):
        g = build_residual_graph(quad, F(1))
        assert g.unexpanded == set()
        assert g.adjacency == {F(1): {4: F(1)}}

    def test_continuum_point_closure(self, quad):
        # 5/6 sits in both right-hand pieces, so the closure has four nodes
        g = build_residual_graph(quad, F(1, 6))
        assert g.exhausted and g.unexpanded == set()
        assert g.adjacency == {
            F(1, 6): {1: F(5, 6), 2: F(1, 30)},
            F(5, 6): {3: F(29, 30), 4: F(1, 6)},
            F(1, 30): {1: F(1, 6)},
            F(29, 30): {4: F(5, 6)},
        }

    def test_node_limit_marks_not_exhausted(self, quad):
        g = build_residual_graph(quad, F(1, 6), max_nodes=2)
        assert not g.exhausted
        assert g.limit_hit == "max_nodes"

    def test_depth_limit_marks_not_exhausted(self, quad):
        g = build_residual_graph(quad, F(1, 6), max_depth=1)
        assert not g.exhausted
        assert g.limit_hit == "max_depth"

    def test_outside_hull_rejected(self, quad):
        with pytest.raises(PointNotInAttractorError):
            build_residual_graph(quad, F(2))

    def test_edges_are_inverse_images(self, quad):
        g = build_residual_graph(quad, F(109, 625))
        for src, out in g.adjacency.items():
            for digit, dst in out.items():
                assert contains(quad.piece(digit), src)
                assert quad.map(digit).invert(src) == dst


class TestClassify:
    def test_quad_spectrum(self, quad):
        assert classify_many(quad, [F(1)]) == [Cardinality.finite(1)]
        assert classify_many(quad, [F(1, 5)]) == [Cardinality.countable()]
        assert classify_many(quad, [F(1, 6)]) == [Cardinality.continuum()]
        assert classify_many(quad, [F(109, 625)]) == [Cardinality.finite(2)]

    def test_unknown_when_limited(self, quad):
        g = build_residual_graph(quad, F(1, 6), max_nodes=2)
        verdict = classify_cardinality(g)
        assert verdict.kind == "unknown"
        assert verdict.limit == "max_nodes"

    def test_gap_point_is_not_in_attractor(self, quad):
        g = build_residual_graph(quad, F(1, 2))
        with pytest.raises(PointNotInAttractorError):
            classify_cardinality(g)

    def test_dead_branch_is_pruned_not_fatal(self, quad):
        # 9/25 is the right endpoint of piece 2: one branch dies, one survives
        (verdict,) = classify_many(quad, [F(9, 25)])
        assert verdict == Cardinality.finite(1)

    def test_noend_powers_of_two(self, noend, noend_report):
        for s in range(4):
            w = make_witness(noend, noend_report, Cardinality.finite(2**s))
            assert classify_many(noend, [w.value]) == [Cardinality.finite(2**s)]


def per_point(ifs, xs, **limits):
    return [classify_cardinality(build_residual_graph(ifs, x, **limits)) for x in xs]


def random_words(rng, ifs, count):
    digits = range(1, ifs.m + 1)
    return [
        (
            tuple(rng.choice(digits) for _ in range(rng.randint(0, 6))),
            tuple(rng.choice(digits) for _ in range(rng.randint(1, 3))),
        )
        for _ in range(count)
    ]


SMALL_LIMITS = [(1, 1), (3, 512), (4096, 2), (50, 5), (7, 3)]


def spy(monkeypatch, name):
    """Record the result of each call of ``_Residuals.<name>``."""
    results = []
    method = getattr(overlapifs.codings._Residuals, name)

    def recorded(self, *args):
        results.append(method(self, *args))
        return results[-1]

    monkeypatch.setattr(overlapifs.codings._Residuals, name, recorded)
    return results


def count_facts(monkeypatch):
    """Record the table size at each ``_facts`` call."""
    calls = []

    def counted(succ, bound, roots):
        calls.append(len(succ))
        return _facts(succ, bound, roots)

    monkeypatch.setattr(overlapifs.codings, "_facts", counted)
    return calls


class TestClassifyMany:
    """One shared graph for a batch gives the per-point verdicts exactly."""

    def test_full_noend_sweep_matches_per_point(self, noend, monkeypatch):
        # every sweep point's size bound from the one pass is within the
        # default limits, so the batch walks no root on its own
        values = list(sweep_words(noend))
        assert len(values) == 5000
        expected = per_point(noend, values)
        walks = spy(monkeypatch, "walk")
        assert classify_many(noend, values) == expected
        assert walks == []

    @pytest.mark.parametrize("limits", SMALL_LIMITS)
    @pytest.mark.parametrize(
        "name", ["quad", "noend", "uneven", "member-3", "member-4", "unequal-3", "unequal-4"]
    )
    def test_small_limits_match_per_point(self, name, limits):
        ifs = TestGraphView.system(name)
        if name in ("quad", "noend", "uneven"):
            values = list(sweep_words(ifs, 3, 2))
        else:
            values = [evaluate(ifs, pre, per) for pre, per in random_words(random.Random(9), ifs, 60)]
        got = classify_many(ifs, values, *limits)
        assert got == per_point(ifs, values, max_nodes=limits[0], max_depth=limits[1])

    @pytest.mark.parametrize(
        "values,max_nodes,expected",
        [
            ([F(1, 6), F(1), F(1, 6)], 2, ["unknown(max_nodes)", "finite(1)", "unknown(max_nodes)"]),
            ([F(1, 6), F(4, 25)], 3, ["unknown(max_nodes)", "countably-infinite"]),
        ],
    )
    def test_capped_pass_takes_the_facts_again(self, quad, monkeypatch, values, max_nodes, expected):
        # 1/6 reaches four residuals: more than max_nodes per distinct root are
        # reached, so the one pass stops early and leaves some unexpanded. 4/25
        # reaches three, not all expanded by the pass; its walk expands the
        # rest, and only facts taken after that walk read it as countable.
        passes = spy(monkeypatch, "expand")
        got = classify_many(quad, values, max_nodes=max_nodes)
        assert passes == [False]
        assert got == per_point(quad, values, max_nodes=max_nodes)
        assert [str(v) for v in got] == expected

    @pytest.mark.parametrize("kind", ["equal", "unequal"])
    def test_seeded_members_match_per_point_and_oracle(self, kind):
        rng = random.Random(2024)
        for _ in range(4):
            ifs = random_member(rng)[0] if kind == "equal" else random_unequal_member(rng)
            values = [evaluate(ifs, pre, per) for pre, per in random_words(rng, ifs, 40)]
            graphs = [build_residual_graph(ifs, x) for x in values]
            got = classify_many(ifs, values)
            assert got == [classify_cardinality(g) for g in graphs]
            for x, g, verdict in zip(values, graphs, got):
                assert g.exhausted
                assert (verdict.kind, verdict.count) == oracle_classify(g), x

    @pytest.mark.parametrize("limits", [{"max_nodes": 3}, {"max_depth": 2}])
    def test_limited_quad_points_match_per_point(self, quad, limits):
        values = [evaluate(quad, pre, per) for pre, per in random_words(random.Random(5), quad, 60)]
        got = classify_many(quad, values, **limits)
        assert got == per_point(quad, values, **limits)
        (limit,) = limits
        assert Cardinality.unknown(limit) in got
        assert any(v.kind != "unknown" for v in got)

    def test_duplicate_values(self, quad):
        values = [F(1, 6), F(1, 5), F(1, 6), F(1), F(1, 5), F(109, 625), F(1, 6)]
        got = classify_many(quad, values)
        assert got == per_point(quad, values)
        assert got[0] is got[2] is got[6]
        assert got[1] is got[4]

    def test_equal_verdicts_are_one_object(self, noend):
        got = classify_many(noend, list(sweep_words(noend, 2, 2, 300)))
        assert len({id(v) for v in got}) == len(set(got))

    @pytest.mark.parametrize("name,k", [("quad", 32), ("uneven", 64), ("noend", 128)])
    def test_small_batch_walks_no_root(self, name, k, monkeypatch, request):
        # a witness's tail and point intern at most min(max_nodes, max_depth)
        # residuals, so neither can hit a limit, though the point's size
        # bound, which sums over both exits of every overlap block, is larger
        walks = spy(monkeypatch, "walk")
        ifs, report = request.getfixturevalue(name), request.getfixturevalue(f"{name}_report")
        w = make_witness(ifs, report, Cardinality.finite(k))
        assert walks == []
        pair = w.value.numerator, w.value.denominator
        res = overlapifs.codings._Residuals(ifs, [pair], DEFAULT_MAX_NODES, DEFAULT_MAX_DEPTH)
        assert res.expand(DEFAULT_MAX_DEPTH)
        assert _facts(res.succ, DEFAULT_MAX_DEPTH, 1)[2][0] > DEFAULT_MAX_DEPTH

    def test_empty_batch(self, quad):
        assert classify_many(quad, []) == []

    def test_value_outside_hull(self, quad):
        with pytest.raises(PointNotInAttractorError):
            classify_many(quad, [F(1, 5), F(2)])

    def test_gap_point_is_not_in_attractor(self, quad):
        with pytest.raises(PointNotInAttractorError):
            classify_many(quad, [F(1, 5), F(1, 2)])

    @pytest.mark.parametrize("limits", [{"max_nodes": 0}, {"max_depth": 0}])
    def test_rejects_zero_limits(self, quad, limits):
        with pytest.raises(ValueError):
            classify_many(quad, [F(1, 5)], **limits)


class TestEnumerate:
    def test_countable_point_depth_three(self, quad):
        got = enumerate_codings(quad, F(1, 5), 3)
        assert got == [(1, 4, 4), (2, 1, 4), (2, 2, 1), (2, 2, 2)]

    def test_unique_point_depth_four(self, quad):
        assert enumerate_codings(quad, F(1), 4) == [(4, 4, 4, 4)]

    def test_continuum_point_depth_two(self, quad):
        assert enumerate_codings(quad, F(1, 6), 2) == [(1, 3), (1, 4), (2, 1)]

    def test_every_prefix_contains_the_point(self, quad):
        for x in (F(1, 5), F(1, 6), F(109, 625), F(1)):
            for word in enumerate_codings(quad, x, 5):
                image = quad.compose_word(word).apply_interval(quad.hull)
                assert contains(image, x)

    def test_gap_point_has_no_prefixes(self, quad):
        assert enumerate_codings(quad, F(1, 2), 3) == []

    def test_depth_validation(self, quad):
        with pytest.raises(ValueError):
            enumerate_codings(quad, F(1, 5), 0)

    def test_limited_graph_never_invents_words(self, quad):
        # with the closure cut short the enumeration stays inside the
        # explored region instead of guessing continuations
        full = set(enumerate_codings(quad, F(1, 6), 3))
        limited = set(enumerate_codings(quad, F(1, 6), 3, max_nodes=2))
        assert limited <= full


class TestGraphView:
    """The id-keyed view of one walk against the Fraction-keyed reference walk."""

    @staticmethod
    def system(name: str) -> Ifs:
        named = {"quad": quad_maps, "noend": noend_maps, "uneven": uneven_maps}
        if name in named:
            return Ifs.from_maps(named[name]())
        kind, seed = name.split("-")
        rng = random.Random(int(seed))
        return random_member(rng)[0] if kind == "member" else random_unequal_member(rng)

    @pytest.mark.parametrize(
        "name", ["quad", "noend", "uneven", "member-5", "member-6", "unequal-7", "unequal-8"]
    )
    def test_matches_reference_at_every_limit(self, name):
        ifs = self.system(name)
        rng = random.Random(41)
        points = {evaluate(ifs, (), (1, ifs.m)), evaluate(ifs, (1,), (ifs.m,))}
        for _ in range(6):
            pre = [rng.randint(1, ifs.m) for _ in range(rng.randint(0, 4))]
            per = [rng.randint(1, ifs.m) for _ in range(rng.randint(1, 3))]
            points.add(evaluate(ifs, pre, per))
        if name == "quad":
            points |= {F(1, 2), F(9, 25)}  # a dead root, a dead branch
        for x in sorted(points):
            full = reference_residual_graph(ifs, x, DEFAULT_MAX_NODES, DEFAULT_MAX_DEPTH)
            for max_nodes in range(1, len(full.depth) + 2):
                for max_depth in range(1, max(full.depth.values()) + 2):
                    g = build_residual_graph(ifs, x, max_nodes, max_depth)
                    ref = reference_residual_graph(ifs, x, max_nodes, max_depth)
                    assert g.root == ref.root
                    assert g.adjacency.keys() | g.unexpanded == ref.depth.keys()
                    assert g.unexpanded == ref.unexpanded
                    assert (g.exhausted, g.limit_hit) == (ref.exhausted, ref.limit_hit)
                    assert list(g.adjacency.items()) == list(ref.adjacency.items())
                    for k in (1, 4):
                        assert enumerate_codings(ifs, x, k, graph=g) == reference_codings(ref, k)

    def test_node_limit_breaks_an_expansion(self, quad):
        # 1/6 and then 5/6 each have two new inverse images: with room for two
        # nodes the second image of each is interned but never reached, and
        # neither node is expanded
        g = build_residual_graph(quad, F(1, 6), max_nodes=2)
        assert g.residuals.pairs == [(1, 6), (5, 6), (1, 30), (29, 30)]
        assert g.depth == {0: 0, 1: 1} and g.expanded == []
        assert g.adjacency == {} and g.unexpanded == {F(1, 6), F(5, 6)}
        assert enumerate_codings(quad, F(1, 6), 1, graph=g) == []
        assert classify_cardinality(g) == Cardinality.unknown("max_nodes")

    def test_walk_never_inverts_a_map(self, noend, quad, monkeypatch):
        # the walk steps reduced integer pairs through Ifs.integer_maps and
        # never calls AffineMap.invert, which the Fraction reference walk uses
        values = list(sweep_words(noend))
        ref = reference_residual_graph(quad, F(109, 625), DEFAULT_MAX_NODES, DEFAULT_MAX_DEPTH)

        def refuse(self, y):
            raise AssertionError("the residual walk inverted a map")

        monkeypatch.setattr(AffineMap, "invert", refuse)
        got = classify_many(noend, values)
        assert Counter(str(v) for v in got) == {
            "finite(1)": 2664, "finite(2)": 964, "finite(4)": 27, "continuum": 1345
        }
        g = build_residual_graph(quad, F(109, 625))
        assert g.adjacency == ref.adjacency and g.unexpanded == ref.unexpanded
        assert classify_cardinality(g) == Cardinality.finite(2)

    def test_one_tarjan_pass_per_graph(self, quad, monkeypatch):
        calls = count_facts(monkeypatch)
        g = build_residual_graph(quad, F(109, 625))
        assert classify_cardinality(g) == Cardinality.finite(2)
        assert enumerate_codings(quad, g.root, 4, graph=g)
        assert calls == [len(g.residuals.pairs)]

    @pytest.mark.parametrize(
        "limits,limit_hit", [({"max_nodes": 2}, "max_nodes"), ({"max_depth": 3}, None)]
    )
    def test_unclosed_graph_walks_once(self, quad, monkeypatch, limits, limit_hit):
        # 1/6 reaches four residuals, more than either limit lets expansion
        # close: the graph's one step walks the root, and every later read
        # (verdict, prefixes and each view) takes that walk. A capped single
        # root always walks, so its one Tarjan pass comes after the walk.
        walks = spy(monkeypatch, "walk")
        facts = count_facts(monkeypatch)
        g = build_residual_graph(quad, F(1, 6), **limits)
        assert facts == [len(g.residuals.pairs)] == [4]
        assert (g.limit_hit, g.exhausted) == (limit_hit, limit_hit is None)
        verdict = classify_cardinality(g)
        assert verdict == (Cardinality.continuum() if g.exhausted else Cardinality.unknown(limit_hit))
        enumerate_codings(quad, g.root, 4, graph=g)
        assert len(g.depth) == len(g.adjacency) + len(g.unexpanded)
        assert walks == [(g.depth, g.expanded, limit_hit)]

    def test_closed_graphs_walk_no_root(self, quad, uneven, monkeypatch):
        # a long word reaches a few dozen residuals, fewer than
        # min(max_nodes, max_depth): expansion closes its graph, so no limit
        # can be hit and no root walks, on its own or in a one-point batch
        rng = random.Random(12)
        points = []
        for ifs in (quad, uneven):
            for _ in range(20):
                pre = [rng.randint(1, ifs.m) for _ in range(rng.randint(12, 24))]
                per = [rng.randint(1, ifs.m) for _ in range(rng.randint(3, 8))]
                points.append((ifs, evaluate(ifs, pre, per)))

        def refuse(self, root):
            raise AssertionError("a root walked")

        monkeypatch.setattr(overlapifs.codings._Residuals, "walk", refuse)
        for ifs, x in points:
            g = build_residual_graph(ifs, x)
            assert g.exhausted
            verdict = classify_cardinality(g)
            assert classify_many(ifs, [x]) == [verdict]
            assert enumerate_codings(ifs, x, 4, graph=g) == enumerate_codings(ifs, x, 4)


class TestFacts:
    """The fused Tarjan pass against the two-pass reference."""

    def test_matches_two_pass_reference(self):
        # unexpanded nodes (None), dead ends (()), duplicate successors and
        # self-loops all occur among these graphs. In the first 4,000
        # successors are any ids. In the next 4,000 most have lower ids, so
        # most tops find all their successors decided and close at once, unless
        # one of them is the top itself; such tops also get duplicate
        # successors and unexpanded ones. The last 4,000 are numbered
        # breadth-first, as expansion interns ids: most successors have higher
        # ids, with some back edges. Each graph is decided with no root, one,
        # some and all, as the visit order changes with the root count.
        rng = random.Random(20)
        for trial in range(12000):
            n = rng.randint(1, 12)
            succ = []
            for y in range(n):
                r = rng.random()
                if trial < 4000 or (not y and trial < 8000):
                    out = tuple(rng.randrange(n) for _ in range(rng.randint(1, 2)))
                elif trial < 8000:
                    out = tuple(rng.randrange(y) for _ in range(rng.randint(1, 2)))
                    out += (y,) * (rng.random() < 0.2) + out[:1] * (rng.random() < 0.2)
                else:
                    out = tuple(
                        rng.randrange(y + 1, n) if y + 1 < n and rng.random() < 0.8
                        else rng.randrange(n) for _ in range(rng.randint(1, 2))
                    )
                    out += (y,) * (rng.random() < 0.1) + out[:1] * (rng.random() < 0.1)
                succ.append(None if r < 0.1 else () if r < 0.2 else out)
            bound = rng.randint(1, 15)
            expected = reference_facts(succ, bound)
            for roots in {0, 1, rng.randint(0, n), n}:
                assert _facts(succ, bound, roots) == expected, (succ, bound, roots)


class TestBigDenominators:
    """Long random words, as in the sparse-points benchmark, give residuals with big
    numerators and denominators: the integer-pair walk against the Fraction walk."""

    @pytest.mark.parametrize("name", ["quad", "uneven", "unequal-0", "unequal-6"])
    def test_matches_reference_and_oracle(self, name):
        ifs = TestGraphView.system(name)
        if name.startswith("unequal"):
            assert sum(f.ratio.numerator != 1 for f in ifs.maps) >= 2
        rng = random.Random(12)
        digits = range(1, ifs.m + 1)
        values = [
            evaluate(
                ifs,
                [rng.choice(digits) for _ in range(rng.randint(12, 24))],
                [rng.choice(digits) for _ in range(rng.randint(3, 8))],
            )
            for _ in range(12)
        ]
        assert max(x.denominator for x in values) > 10**20
        verdicts = classify_many(ifs, values)
        for x, verdict in zip(values, verdicts):
            g = build_residual_graph(ifs, x)
            ref = reference_residual_graph(ifs, x, DEFAULT_MAX_NODES, DEFAULT_MAX_DEPTH)
            assert g.exhausted and ref.exhausted
            assert g.root == ref.root and g.unexpanded == ref.unexpanded == set()
            assert list(g.adjacency.items()) == list(ref.adjacency.items())
            assert classify_cardinality(g) == verdict
            assert (verdict.kind, verdict.count) == oracle_classify(ref), x
            for k in (1, 4, 8):
                assert enumerate_codings(ifs, x, k) == reference_codings(ref, k)


class TestResidualStep:
    """A residual's inverse image is reduced by one gcd with a small operand."""

    def test_small_gcd_reduces_fully(self):
        # With n/q reduced, gcd(c*n - b*q, a*q) == gcd(c*n - b*q, a * gcd(c, q)).
        rng = random.Random(82)

        def smooth(top):
            return math.prod(p ** rng.randint(0, 5) for p in (2, 3, 5, 7)) * rng.randint(1, top)

        for _ in range(20_000):
            q = smooth(10 ** rng.randint(1, 30))
            n = rng.randint(-q, 2 * q)
            n, q = n // math.gcd(n, q), q // math.gcd(n, q)
            a, b, c = smooth(60), rng.randint(-(10**6), 10**6), smooth(60)
            num = c * n - b * q
            assert math.gcd(num, a * q) == math.gcd(num, a * math.gcd(c, q))

    @pytest.mark.parametrize("name", ["quad", "uneven", "unequal-0", "unequal-6"])
    def test_successors_match_fraction_inverses(self, name):
        ifs = TestGraphView.system(name)
        rng = random.Random(83)
        lo, hi = ifs.hull.lo, ifs.hull.hi
        for _ in range(300):
            q = rng.randint(1, 10 ** rng.randint(1, 40)) * ifs.integer_maps[0][2] ** rng.randint(0, 3)
            x = lo + (hi - lo) * F(rng.randint(0, q), q)
            res = overlapifs.codings._Residuals(ifs, [(x.numerator, x.denominator)], 1, 1)
            found = [res.value(j) for j in res.successors(0)]
            assert found == [ifs.map(d).invert(x) for d in res.labels[0]]
            assert all(math.gcd(*res.pairs[j]) == 1 for j in res.successors(0))

    def test_long_preperiod_classifies_fast(self, quad):
        # A random 30,000-digit preperiod gives about 43,000 residuals of up to 30,000
        # digits: a full gcd per residual took minutes.
        rng = random.Random(30_000)
        x = evaluate(quad, [rng.randint(1, 4) for _ in range(30_000)], (4,))
        start = time.perf_counter()
        graph = build_residual_graph(quad, x, 10**6, 10**6)
        verdict = classify_cardinality(graph)
        assert time.perf_counter() - start < 10
        assert len(graph.residuals.pairs) == 43_172
        assert verdict.kind == "finite"
        assert (verdict.count.bit_length(), verdict.count % 1_000_000_007) == (9184, 398_862_320)


class TestPrefixForcing:
    """Inside an overlap every coding starts with one of the two tail words."""

    def _check(self, ifs, report, samples_per_overlap=8):
        tails = [((d,), (d,)) for d in range(1, ifs.m + 1)]
        tails += [((d, e), (d, e)) for d in range(1, ifs.m + 1) for e in (1, ifs.m)]
        for spec in report.overlaps:
            left_word = (spec.index,) + (ifs.m,) * (spec.u - 1)
            right_word = (spec.index + 1,) + (1,) * (spec.v - 1)
            depth = max(spec.u, spec.v)
            checked = 0
            for pre, per in tails:
                if checked >= samples_per_overlap:
                    break
                inner = evaluate(ifs, pre, per)
                x = spec.composed(inner)
                assert contains(spec.overlap, x)
                prefixes = enumerate_codings(ifs, x, depth)
                assert prefixes, f"no codings for {x}"
                for word in prefixes:
                    assert (
                        word[: len(left_word)] == left_word
                        or word[: len(right_word)] == right_word
                    ), f"{word} escapes both forced tails at {x}"
                checked += 1

    def test_quad(self, quad, quad_report):
        self._check(quad, quad_report)

    def test_noend(self, noend, noend_report):
        self._check(noend, noend_report)

    def test_uneven(self, uneven, uneven_report):
        self._check(uneven, uneven_report)


class TestOracleAgreement:
    """Classifier verdicts match brute-force prefix counting."""

    def test_quad_points(self, quad):
        expectations = {
            F(1): ("finite", 1),
            F(1, 5): ("countable", None),
            F(1, 6): ("continuum", None),
            F(109, 625): ("finite", 2),
        }
        for x, expected in expectations.items():
            g = build_residual_graph(quad, x)
            verdict = classify_cardinality(g)
            assert oracle_classify(g) == expected
            assert (verdict.kind, verdict.count) == expected

    def test_large_finite_graph(self, quad):
        # 41 residual nodes: the prefix series settles only past depth 60
        pre = (4, 3, 2, 4, 3, 4, 2, 4, 1, 3, 1, 4, 1, 3, 1, 4, 1, 2, 2, 1, 4, 3, 3, 2)
        g = build_residual_graph(quad, evaluate(quad, pre, (2, 2, 3, 3, 1, 1, 3)))
        verdict = classify_cardinality(g)
        assert (verdict.kind, verdict.count) == ("finite", 156)
        assert oracle_classify(g) == ("finite", 156)

    def test_finite_counts_match_path_counting(self, quad, quad_report):
        for k in range(1, 6):
            w = make_witness(quad, quad_report, Cardinality.finite(k))
            g = build_residual_graph(quad, w.value)
            series = prefix_count_series(g, 3 * len(g.adjacency.keys() | g.unexpanded))
            assert series[-1] == k

    def test_sampled_small_graphs(self, quad, noend):
        for ifs in (quad, noend):
            words = [((d,), (ifs.m,)) for d in range(1, ifs.m + 1)]
            words += [((d, e), (1, ifs.m)) for d in range(1, ifs.m + 1) for e in (1, 2)]
            for pre, per in words:
                x = evaluate(ifs, pre, per)
                g = build_residual_graph(ifs, x)
                if not g.exhausted or len(g.adjacency) > 12:
                    continue
                verdict = classify_cardinality(g)
                kind, count = oracle_classify(g)
                assert verdict.kind == kind, f"{x}: {verdict} vs oracle {kind}"
                if kind == "finite":
                    assert verdict.count == count


class TestCountableTailStructure:
    """Countable verdicts ride on a path into an endpoint self-loop."""

    def test_quad_family(self, quad):
        a, b = quad.hull.lo, quad.hull.hi
        for n in range(1, 5):
            x = evaluate(quad, (1,) * n, (4,))
            g = build_residual_graph(quad, x)
            assert classify_cardinality(g) == Cardinality.countable()
            assert g.adjacency.get(b, {}).get(4) == b or g.adjacency.get(a, {}).get(1) == a


@cache
def _witness_systems() -> list[Ifs]:
    """The checked-in systems, then 30 equal-ratio and 30 unequal-ratio members."""
    rng = random.Random(5)
    systems = [Ifs.from_maps(maps()) for maps in (quad_maps, noend_maps, uneven_maps)]
    systems += [random_member(rng)[0] for _ in range(30)]
    return systems + [random_unequal_member(rng) for _ in range(30)]


class TestWitnesses:
    def test_quad_finite_two_matches_known_value(self, quad, quad_report):
        w = make_witness(quad, quad_report, Cardinality.finite(2))
        assert w.value == F(109, 625)
        assert (w.preperiod, w.period) == ((1, 4, 2), (4,))

    def test_quad_countable_is_left_end_image(self, quad, quad_report):
        w = make_witness(quad, quad_report, Cardinality.countable())
        assert w.value == F(1, 5)

    def test_quad_continuum_is_overlap_cycle_fixed_point(self, quad, quad_report):
        w = make_witness(quad, quad_report, Cardinality.continuum())
        assert w.value == F(1, 6)
        assert (w.preperiod, w.period) == ((), (1, 4))

    def test_noend_power_structure(self, noend, noend_report):
        w = make_witness(noend, noend_report, Cardinality.finite(4))
        assert (w.preperiod, w.period) == ((2, 4, 2, 4, 1), (4,))

    def test_noend_rejects_non_powers(self, noend, noend_report):
        for k in (3, 5, 6, 12):
            with pytest.raises(UnreachableTargetError):
                make_witness(noend, noend_report, Cardinality.finite(k))

    def test_noend_rejects_countable(self, noend, noend_report):
        with pytest.raises(UnreachableTargetError):
            make_witness(noend, noend_report, Cardinality.countable())

    def test_uneven_left_overlap_recipe(self, uneven, uneven_report):
        for k in (1, 2, 3):
            w = make_witness(uneven, uneven_report, Cardinality.finite(k))
            assert classify_many(uneven, [w.value]) == [Cardinality.finite(k)]
        w = make_witness(uneven, uneven_report, Cardinality.countable())
        assert w.value == F(1, 9)

    @pytest.mark.parametrize(
        "system,target,tail",
        [("quad", 3, "w=2;p=4"), ("noend", 2, "w=1;p=4"), ("uneven", 3, "w=2;p=3")],
    )
    def test_unverified_tail_raises(self, request, system, target, tail):
        # max_nodes=1 leaves the tail's verdict unknown, so its self-check fails first,
        # naming the limit and the flag that raises it
        ifs, report = request.getfixturevalue(system), request.getfixturevalue(f"{system}_report")
        expected = f"tail {tail} was expected to have a unique coding, classifier says unknown"
        with pytest.raises(WitnessVerificationError, match=re.escape(expected)) as caught:
            make_witness(ifs, report, Cardinality.finite(target), max_nodes=1)
        assert str(caught.value).endswith("(max_nodes): it hit max_nodes=1; raise it with --max-nodes")

    # A finite witness's preperiod of P digits gives P + 1 distinct residuals, so at
    # P >= max_nodes its check must fail: make_witness says so before building the word
    # (once the tail's own check has passed). Each witness word, taken at the default
    # limits, is checked again here with the batch make_witness would classify.
    @pytest.mark.parametrize("index", range(63))
    def test_word_too_long_for_max_nodes_raises_only_where_the_check_fails(self, index):
        ifs = _witness_systems()[index]
        report = validate(ifs)
        words = {}
        for k in range(1, 72):
            try:
                words[k] = make_witness(ifs, report, Cardinality.finite(k))
            except UnreachableTargetError:
                pass
        unique = Cardinality.finite(1)
        for max_nodes in (8, 16, 24):
            for k in range(1, 3 * max_nodes):
                if k not in words:
                    continue
                word, target = words[k], Cardinality.finite(k)
                tail = evaluate(ifs, word.preperiod[-1:], word.period)
                verdicts = classify_many(ifs, [tail, word.value], max_nodes)
                length = len(word.preperiod)
                try:
                    got = make_witness(ifs, report, target, max_nodes)
                except WitnessVerificationError as exc:
                    early = f"has a preperiod of {length} digits" in str(exc)
                    assert early == (length >= max_nodes and verdicts[0] == unique)
                    assert verdicts != [unique, target]
                    if early:
                        assert str(exc).endswith(f"hit max_nodes={max_nodes}; raise it with --max-nodes")
                else:
                    assert got == word and length < max_nodes and verdicts == [unique, target]

    def test_word_of_exactly_max_nodes_digits_raises(self, quad, quad_report):
        # quad's finite(k) witness has k + 1 digits before its period
        for k, max_nodes in ((7, 8), (15, 16), (23, 24)):
            assert len(make_witness(quad, quad_report, Cardinality.finite(k)).preperiod) == max_nodes
            with pytest.raises(WitnessVerificationError, match=f"preperiod of {max_nodes} digits"):
                make_witness(quad, quad_report, Cardinality.finite(k), max_nodes)

    def test_witnesses_are_deterministic(self, quad, quad_report):
        a = make_witness(quad, quad_report, Cardinality.finite(3))
        b = make_witness(quad, quad_report, Cardinality.finite(3))
        assert a == b

    def test_request_parsing(self):
        valid = {
            "finite:4": Cardinality.finite(4),
            "aleph0": Cardinality.countable(),
            "continuum": Cardinality.continuum(),
            "  finite:12\t": Cardinality.finite(12),
            " aleph0 ": Cardinality.countable(),
            "\ncontinuum ": Cardinality.continuum(),
        }
        for text, target in valid.items():
            assert Cardinality.parse(text) == target, text
        invalid = [
            "finite:zero", "finite:0", "finite:-2", "finite:", "finite", "unknown",
            "countable", "aleph", "", "  ",
        ]
        for text in invalid:
            with pytest.raises(ValueError):
                Cardinality.parse(text)

    @pytest.mark.parametrize(
        "target",
        [
            Cardinality.unknown("max_depth"),
            Cardinality.unknown(None),
            Cardinality("finite", 0),
            Cardinality("finite"),
            Cardinality("finite", 2, limit="max_nodes"),
            Cardinality("countable", 3),
        ],
        ids=str,
    )
    def test_bad_target_raises_before_classifying(self, quad, quad_report, monkeypatch, target):
        def refuse(*args, **kwargs):
            raise AssertionError("a bad target reached the classifier")

        monkeypatch.setattr(overlapifs.codings, "classify_many", refuse)
        with pytest.raises(ValueError, match="bad witness target"):
            make_witness(quad, quad_report, target)

    def test_requires_member(self, quad):
        from overlapifs import Ifs, AffineMap, validate

        bad = validate(Ifs.from_maps([AffineMap(F(1, 5), F(0)), AffineMap(F(1, 5), F(4, 5))]))
        with pytest.raises(ValueError):
            make_witness(quad, bad, Cardinality.finite(1))
