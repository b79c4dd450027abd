"""Theorem harnesses and the dichotomy sweep at reduced scale."""

import random
from fractions import Fraction as F
from math import gcd

import pytest

import overlapifs.codings
import overlapifs.verify
from conftest import (
    noend_maps,
    quad_maps,
    random_member,
    random_unequal_member,
    sweep_words,
    uneven_maps,
)
from overlapifs import (
    AffineMap,
    Cardinality,
    DimensionResult,
    Ifs,
    PointNotInAttractorError,
    build_residual_graph,
    classify_cardinality,
    classify_many,
    dichotomy_sweep,
    run_theorem_harness,
    validate,
)


class TestTheoremOne:
    def test_quad_passes(self, quad, quad_report):
        result = run_theorem_harness(quad, quad_report, 1)
        assert result.applicable
        assert result.passed
        names = [c.name for c in result.checks]
        assert "witness finite(4)" in names
        assert "witness countable" in names
        assert "countable family" in names

    def test_uneven_passes(self, uneven, uneven_report):
        result = run_theorem_harness(uneven, uneven_report, 1)
        assert result.passed

    def test_inapplicable_on_noend(self, noend, noend_report):
        result = run_theorem_harness(noend, noend_report, 1)
        assert not result.applicable
        assert not result.passed


class TestTheoremTwo:
    def test_noend_small_sweep_passes(self, noend, noend_report):
        result = run_theorem_harness(noend, noend_report, 2)
        assert result.applicable
        assert result.passed, [c for c in result.checks if not c.passed]
        sweep_check = next(c for c in result.checks if "sweep" in c.name)
        assert "finite counts" in sweep_check.detail

    def test_inapplicable_on_quad(self, quad, quad_report):
        result = run_theorem_harness(quad, quad_report, 2)
        assert not result.applicable

    @pytest.mark.parametrize(
        "limits,unknown",
        [({"max_nodes": 1}, 4996), ({"max_depth": 3}, 4859)],
        ids=["max_nodes", "max_depth"],
    )
    def test_sweep_fails_on_undecided_points(self, noend, noend_report, limits, unknown):
        # no sampled verdict breaks the dichotomy, but most are unknown: the
        # check fails and names the limit, its value and its flag
        result = run_theorem_harness(noend, noend_report, 2, **limits)
        check = next(c for c in result.checks if c.name == "power-of-two dichotomy sweep")
        assert not check.passed and not result.passed
        assert f"'unknown': {unknown}}}" in check.detail
        ((limit, value),) = limits.items()
        flag = limit.replace("_", "-")
        assert check.detail.endswith(
            f"; {unknown} points undecided: they hit {limit}={value}; raise it with --{flag}"
        )

    def test_sweep_names_each_limit_hit(self, noend, noend_report):
        sweep = dichotomy_sweep(noend, cap=400, max_nodes=3, max_depth=2)
        assert sweep["limits"] == ["max_depth", "max_nodes"]
        result = run_theorem_harness(noend, noend_report, 2, max_nodes=3, max_depth=2)
        check = next(c for c in result.checks if c.name == "power-of-two dichotomy sweep")
        assert not check.passed
        assert check.detail.endswith(
            "they hit max_depth=2; raise it with --max-depth "
            "and hit max_nodes=3; raise it with --max-nodes"
        )


class TestTheoremThree:
    def test_quad(self, quad, quad_report):
        result = run_theorem_harness(quad, quad_report, 3)
        assert result.passed
        assert result.notes
        assert any("not quantities measured" in n for n in result.notes)

    def test_noend(self, noend, noend_report):
        result = run_theorem_harness(noend, noend_report, 3)
        assert result.passed

    @pytest.mark.parametrize(
        "reduced,full,expected",
        [
            # midpoints 0.15 apart, but the proved brackets overlap: no proof of a gap
            ((F(2, 5), F(3, 5)), (F(11, 20), F(3, 4)), False),
            # midpoints 2e-13 apart, within the old 10 * tol margin, brackets disjoint
            (
                (F(1, 2), F(1, 2) + F(1, 10**13)),
                (F(1, 2) + F(2, 10**13), F(1, 2) + F(3, 10**13)),
                True,
            ),
        ],
    )
    def test_strict_gap_is_decided_by_the_brackets(
        self, quad, quad_report, monkeypatch, reduced, full, expected
    ):
        def result(bracket):
            return DimensionResult(bracket, 1)

        # solve_dimension runs on the full system first, then on the reduced one
        answers = iter([result(full), result(reduced)])
        monkeypatch.setattr(overlapifs.verify, "solve_dimension", lambda gds, tol: next(answers))
        tol = 1e-12
        float_rule = result(reduced).value + 10 * tol < result(full).value
        assert float_rule != expected
        checks = run_theorem_harness(quad, quad_report, 3, tol=tol).checks
        gap = next(c for c in checks if c.name == "strict dimension gap")
        assert gap.passed == expected
        assert ("<" in gap.detail) == expected


class TestFailDetails:
    """Each harness check that can fail says why, and the harness does not pass."""

    def test_unreachable_target_constructed(self, noend, noend_report, monkeypatch):
        point = overlapifs.verify.make_witness(noend, noend_report, Cardinality.finite(1))
        monkeypatch.setattr(overlapifs.verify, "make_witness", lambda *args, **limits: point)
        result = run_theorem_harness(noend, noend_report, 2)
        check = next(c for c in result.checks if c.name == "unreachable finite(3)")
        assert (check.passed, check.detail) == (False, f"unexpectedly constructed {point}")
        assert result.passed is False

    def test_family_point_misclassified(self, quad, quad_report, monkeypatch):
        def classify(ifs, points, **limits):
            return [Cardinality.countable(), Cardinality.finite(1), *classify_many(ifs, points[2:], **limits)]

        monkeypatch.setattr(overlapifs.verify, "classify_many", classify)
        result = run_theorem_harness(quad, quad_report, 1)
        check = next(c for c in result.checks if c.name == "countable family")
        second = overlapifs.verify.evaluate(quad, (1, 1), (4,))
        assert (check.passed, check.detail) == (False, f"depth-2 family point {second} classified finite(1)")
        assert result.passed is False

    def test_family_points_collide(self, quad, quad_report, monkeypatch):
        evaluate = overlapifs.verify.evaluate
        monkeypatch.setattr(overlapifs.verify, "evaluate", lambda ifs, pre, per: evaluate(ifs, pre[:1], per))
        result = run_theorem_harness(quad, quad_report, 1)
        check = next(c for c in result.checks if c.name == "countable family")
        assert (check.passed, check.detail) == (False, "family points collided")
        assert result.passed is False

    def test_sweep_violations_are_listed(self, noend, noend_report, monkeypatch):
        classify = overlapifs.verify._classify

        def wrong(res):
            return [Cardinality.finite(3), Cardinality.countable(), *classify(res)[2:]]

        monkeypatch.setattr(overlapifs.verify, "_classify", wrong)
        result = run_theorem_harness(noend, noend_report, 2)
        check = next(c for c in result.checks if c.name == "power-of-two dichotomy sweep")
        assert check.passed is False
        assert check.detail.endswith("; violations: ['w=();p=(1,) -> finite(3)', 'w=();p=(2,) -> countable']")
        assert result.passed is False


class TestSweep:
    def test_noend_dichotomy_holds(self, noend):
        sweep = dichotomy_sweep(noend, max_preperiod=2, max_period=2, cap=300)
        assert sweep["violations"] == []
        assert all((k & (k - 1)) == 0 for k in sweep["finite_counts"])
        assert sweep["tally"]["countable"] == 0
        assert sweep["classified"] > 100

    def test_quad_finds_countable_points(self, quad):
        # mixed spectrum on the both-ends system: countable points exist
        sweep = dichotomy_sweep(quad, max_preperiod=2, max_period=1, cap=200)
        assert sweep["tally"]["countable"] > 0

    def test_noend_default_sweep_pinned(self, noend):
        sweep = dichotomy_sweep(noend)
        assert sweep["classified"] == 5000
        assert sweep["tally"] == {"finite": 3655, "countable": 0, "continuum": 1345, "unknown": 0}
        assert sweep["finite_counts"] == [1, 2, 4]
        assert sweep["violations"] == []

    def test_quad_violations_match_per_point_loop(self, quad):
        expected = []
        for x, (pre, per) in sweep_words(quad).items():
            verdict = classify_cardinality(build_residual_graph(quad, x))
            if verdict.kind == "countable":
                expected.append(f"w={pre};p={per} -> countable")
            elif verdict.kind == "finite" and verdict.count & (verdict.count - 1):
                expected.append(f"w={pre};p={per} -> finite({verdict.count})")
        sweep = dichotomy_sweep(quad)
        assert expected
        assert sweep["violations"] == expected

    def test_cap_respected(self, noend):
        sweep = dichotomy_sweep(noend, max_preperiod=3, max_period=2, cap=50)
        assert sweep["classified"] == 50

    def test_cap_zero_classifies_nothing(self, noend):
        sweep = dichotomy_sweep(noend, cap=0)
        assert sweep["classified"] == 0 and sweep_words(noend, cap=0) == {}
        assert sweep["tally"] == {"finite": 0, "countable": 0, "continuum": 0, "unknown": 0}

    @pytest.mark.parametrize("cap", [-1, -5])
    def test_negative_cap_raises(self, noend, cap):
        with pytest.raises(ValueError, match="cap must be >= 0"):
            dichotomy_sweep(noend, cap=cap)
        with pytest.raises(ValueError, match="cap must be >= 0"):
            sweep_words(noend, cap=cap)

    def test_builds_no_fraction(self, noend, monkeypatch):
        # the sweep hands its reduced integer pairs to the batch classifier as
        # they are; the system's cached integer forms are built beforehand
        assert noend.bounds and noend.integer_maps
        made = []
        new = F.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", staticmethod(counted))
        assert dichotomy_sweep(noend)["classified"] == 5000
        assert made == []
        F(1, 2)
        assert made == [(1, 2)]  # the patch does count a Fraction built


def _non_unit_member():
    """Ratio 2/7: f1 f3 = f2 f1 = 4x/49 + 10/49, so pair (1, 2) overlaps with u = v = 1."""
    return Ifs.from_maps([AffineMap(F(2, 7), b) for b in (F(0), F(10, 49), F(5, 7))])


def _sweep_systems():
    rng = random.Random(11)
    systems = [Ifs.from_maps(maps()) for maps in (quad_maps, noend_maps, uneven_maps)]
    systems += [random_member(rng)[0] for _ in range(3)]
    systems += [random_unequal_member(rng) for _ in range(3)]
    return [*systems, _non_unit_member()]


class TestSweepPoints:
    """The integer build of the sweep's points equals ``sweep_words``, one Fraction fold per word."""

    @staticmethod
    def handed_over(monkeypatch, ifs, **bounds):
        """Each pair the sweep interns as a root, in order, with its word as the
        violation text prints it: the shared step that classifies the roots is
        replaced, before it expands any, by one that reads every root countable."""
        seen = []

        def countable(res):
            seen.extend(res.pairs)
            return [Cardinality.countable()] * len(seen)

        monkeypatch.setattr(overlapifs.verify, "_classify", countable)
        violations = dichotomy_sweep(ifs, **bounds)["violations"]
        for pair in seen:
            assert type(pair) is tuple and len(pair) == 2
            n, q = pair
            assert type(n) is int and type(q) is int and q > 0 and gcd(n, q) == 1
        return list(zip(seen, (v.removesuffix(" -> countable") for v in violations), strict=True))

    def check(self, monkeypatch, ifs, **bounds):
        words = sweep_words(ifs, **bounds)
        expected = [
            ((x.numerator, x.denominator), f"w={pre};p={per}") for x, (pre, per) in words.items()
        ]
        assert self.handed_over(monkeypatch, ifs, **bounds) == expected

    @pytest.mark.parametrize(
        "bounds",
        [{"cap": 7}, {"max_preperiod": 3, "max_period": 2, "cap": 800},
         {"max_preperiod": 1, "max_period": 2, "cap": 10**6}],
        ids=["small-cap", "mid", "cap-above-words"],
    )
    @pytest.mark.parametrize("index", range(len(_sweep_systems())))
    def test_values_and_first_words_match(self, monkeypatch, index, bounds):
        self.check(monkeypatch, _sweep_systems()[index], **bounds)

    @pytest.mark.parametrize("index", [1, -1])
    def test_default_bounds_match(self, monkeypatch, index):
        self.check(monkeypatch, _sweep_systems()[index])

    def test_non_unit_member_is_valid(self):
        report = validate(_non_unit_member())
        assert report.member
        assert [(s.index, s.u, s.v) for s in report.overlaps] == [(1, 1, 1)]


class TestCanonicalWords:
    """The sweep evaluates canonical words only: no period that is a power of a
    shorter word, and no preperiod ending in the period's last digit. Its
    words, tallies and violations equal those of the unfiltered words of
    ``sweep_words``, each value classified on its own."""

    LIMIT = 4000  # values taken from sweep_words, to keep the reference quick

    @staticmethod
    def expected(words: dict, verdicts: list) -> dict:
        tally = {"finite": 0, "countable": 0, "continuum": 0, "unknown": 0}
        counts, violations = set(), []
        for (pre, per), verdict in zip(words.values(), verdicts):
            tally[verdict.kind] += 1
            if verdict.kind == "countable":
                violations.append(f"w={pre};p={per} -> countable")
            elif verdict.kind == "finite":
                counts.add(verdict.count)
                if verdict.count & (verdict.count - 1):
                    violations.append(f"w={pre};p={per} -> finite({verdict.count})")
        limits = sorted({v.limit for v in verdicts if v.kind == "unknown"})
        return {"classified": len(words), "tally": tally, "finite_counts": sorted(counts),
                "violations": violations, "limits": limits}

    # each bound reaches periods that are powers (1,1) and preperiods ending in
    # the period's last digit, so both rules drop words
    @pytest.mark.parametrize("bounds", [(4, 3), (2, 4), (5, 2), (1, 4)], ids=str)
    @pytest.mark.parametrize("index", range(len(_sweep_systems())))
    def test_matches_unfiltered_words(self, monkeypatch, index, bounds):
        ifs = _sweep_systems()[index]
        pre, per = bounds
        words = sweep_words(ifs, pre, per, self.LIMIT)
        verdicts = classify_many(ifs, list(words))
        # past the count when sweep_words ran out of words below the limit
        full = len(words) < self.LIMIT
        caps = [0, 1, len(words) // 2, len(words) + 1 if full else len(words)]
        for cap in caps:
            head = dict(list(words.items())[:cap])
            sweep = dichotomy_sweep(ifs, pre, per, cap)
            assert sweep == self.expected(head, verdicts[:cap])
            bounds = {"max_preperiod": pre, "max_period": per, "cap": cap}
            handed = TestSweepPoints.handed_over(monkeypatch, ifs, **bounds)
            monkeypatch.undo()
            assert handed == [
                ((x.numerator, x.denominator), f"w={w};p={p}") for x, (w, p) in head.items()
            ]

    @pytest.mark.parametrize("limits", [{"max_nodes": 3}, {"max_depth": 2}, {"max_nodes": 1}])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_limited_sweep_matches_unfiltered_words(self, index, limits):
        # unknown verdicts are read off the limits the shared step found
        ifs = _sweep_systems()[index]
        words = sweep_words(ifs, 2, 2, 300)
        verdicts = classify_many(ifs, list(words), **limits)
        assert Cardinality.unknown(next(iter(limits))) in verdicts
        assert dichotomy_sweep(ifs, 2, 2, 300, **limits) == self.expected(words, verdicts)

    def test_root_with_no_path_raises(self, noend, monkeypatch):
        facts = overlapifs.codings._facts

        def dead_first_root(succ, bound, roots):
            flag, walks, size = facts(succ, bound, roots)
            flag[0] = walks[0] = 0
            return flag, walks, size

        monkeypatch.setattr(overlapifs.codings, "_facts", dead_first_root)
        with pytest.raises(PointNotInAttractorError, match="has no infinite digit path"):
            dichotomy_sweep(noend, cap=10)

    def test_noend_default_sweep_evaluates_canonical_words_only(self, noend, monkeypatch):
        # the unfiltered order takes 9,619 words to reach 5,000 distinct
        # values, and 6,545 of those words are canonical
        roots = []
        root = overlapifs.codings._Residuals.root

        def counted(self, pair):
            roots.append(pair)
            return root(self, pair)

        monkeypatch.setattr(overlapifs.codings._Residuals, "root", counted)
        assert dichotomy_sweep(noend)["classified"] == 5000
        assert len(roots) == 6545
        assert len(set(roots)) == 5000


class TestValidation:
    def test_rejects_non_member(self, quad):
        from fractions import Fraction as F

        from overlapifs import AffineMap, Ifs, validate

        bad = validate(Ifs.from_maps([AffineMap(F(1, 5), F(0)), AffineMap(F(1, 5), F(4, 5))]))
        with pytest.raises(ValueError):
            run_theorem_harness(quad, bad, 1)

    @pytest.mark.parametrize("theorem", [1, 2, 3])
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_tol(self, quad, quad_report, theorem, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            run_theorem_harness(quad, quad_report, theorem, tol=tol)

    def test_rejects_bad_theorem_number(self, quad, quad_report):
        with pytest.raises(ValueError, match="theorem must be 1, 2 or 3, got 4"):
            run_theorem_harness(quad, quad_report, 4)
        # checked first: a non-member report meets the theorem error, not the member one
        bad = validate(Ifs.from_maps([AffineMap(F(1, 5), F(0)), AffineMap(F(1, 5), F(4, 5))]))
        with pytest.raises(ValueError, match="theorem must be 1, 2 or 3, got 4"):
            run_theorem_harness(quad, bad, 4)
