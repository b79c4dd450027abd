"""Theorem harnesses and the dichotomy sweep at reduced scale."""

from fractions import Fraction as F

import pytest

import overlapifs.verify
from conftest import sweep_words
from overlapifs import (
    DimensionResult,
    build_residual_graph,
    classify_cardinality,
    dichotomy_sweep,
    run_theorem_harness,
)


class TestTheoremOne:
    def test_quad_passes(self, quad, quad_report):
        result = run_theorem_harness(quad, quad_report, 1, finite_upto=4)
        assert result.applicable
        assert result.passed
        names = [c.name for c in result.checks]
        assert "witness finite(4)" in names
        assert "witness countable" in names
        assert "countable family" in names

    def test_uneven_passes(self, uneven, uneven_report):
        result = run_theorem_harness(uneven, uneven_report, 1, finite_upto=3)
        assert result.passed

    def test_inapplicable_on_noend(self, noend, noend_report):
        result = run_theorem_harness(noend, noend_report, 1)
        assert not result.applicable
        assert not result.passed


class TestTheoremTwo:
    def test_noend_small_sweep_passes(self, noend, noend_report):
        result = run_theorem_harness(noend, noend_report, 2, power_upto=3, sweep_cap=400)
        assert result.applicable
        assert result.passed, [c for c in result.checks if not c.passed]
        sweep_check = next(c for c in result.checks if "sweep" in c.name)
        assert "finite counts" in sweep_check.detail

    def test_inapplicable_on_quad(self, quad, quad_report):
        result = run_theorem_harness(quad, quad_report, 2)
        assert not result.applicable


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
            return DimensionResult(float(sum(bracket) / 2), bracket, 1)

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
        with pytest.raises(ValueError):
            run_theorem_harness(quad, quad_report, 4)
