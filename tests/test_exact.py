"""Exact arithmetic layer: rationals, intervals, affine maps."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import contains, interior_overlaps
from overlapifs import (
    AffineMap,
    Cardinality,
    CheckResult,
    Ifs,
    Interval,
    format_rational,
    parse_rational,
    run_theorem_harness,
)


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4/25", F(4, 25)),
            ("-3/6", F(-1, 2)),
            ("7", F(7)),
            ("-2", F(-2)),
            (" 1/5 ", F(1, 5)),
            ("10/4", F(5, 2)),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["", "1/0", "3.5", "+3", "1/-2", "a/b", "1 / 2", "--1"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_format_round_trip(self):
        for q in [F(4, 25), F(-7, 3), F(5), F(0), F(-2)]:
            assert parse_rational(format_rational(q)) == q

    def test_format_lowest_terms(self):
        assert format_rational(F(10, 4)) == "5/2"
        assert format_rational(F(3, 1)) == "3"


class TestInterval:
    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            Interval(F(1), F(0))

    def test_point_interval(self):
        iv = Interval(F(1, 3), F(1, 3))
        assert iv.is_point
        assert contains(iv, F(1, 3))

    def test_intersect_overlap(self):
        left = Interval(F(0), F(1, 5))
        right = Interval(F(4, 25), F(9, 25))
        assert left.intersect(right) == Interval(F(4, 25), F(1, 5))

    def test_intersect_disjoint(self):
        assert Interval(F(4, 25), F(9, 25)).intersect(Interval(F(16, 25), F(21, 25))) is None

    def test_intersect_shared_endpoint_is_point(self):
        got = Interval(F(0), F(1)).intersect(Interval(F(1), F(2)))
        assert got == Interval(F(1), F(1))
        assert got.is_point

    def test_interior_overlap_excludes_touching(self):
        assert not interior_overlaps(Interval(F(0), F(1)), Interval(F(1), F(2)))
        assert interior_overlaps(Interval(F(0), F(1)), Interval(F(1, 2), F(2)))

    def test_containment(self):
        assert Interval(F(0), F(1)).contains_interval(Interval(F(1, 4), F(1, 2)))
        assert not Interval(F(1, 4), F(1, 2)).contains_interval(Interval(F(0), F(1)))


class TestAffineMap:
    def test_ratio_domain(self):
        with pytest.raises(ValueError):
            AffineMap(F(1), F(0))
        with pytest.raises(ValueError):
            AffineMap(F(0), F(1, 2))
        with pytest.raises(ValueError):
            AffineMap(F(-1, 2), F(0))

    # Maps compose through ``Ifs.compose_word``: a word names its maps by digit,
    # and the first digit's map is applied last.
    def test_compose_expansion(self):
        # (x/5) after (x/5 + 4/5) is x/25 + 4/25; checked at sample points too
        f = AffineMap(F(1, 5), F(0))
        g = AffineMap(F(1, 5), F(4, 5))
        h = Ifs.from_maps([f, g]).compose_word((1, 2))
        assert h == AffineMap(F(1, 25), F(4, 25))
        for x in (F(0), F(1), F(5)):
            assert h(x) == f(g(x))

    def test_compose_self(self):
        f = AffineMap(F(1, 2), F(0))
        assert Ifs.from_maps([f]).compose_word((1, 1)) == AffineMap(F(1, 4), F(0))

    def test_compose_other_order(self):
        f = AffineMap(F(1, 5), F(4, 5))
        g = AffineMap(F(1, 5), F(0))
        h = Ifs.from_maps([f, g]).compose_word((2, 1))
        assert h == AffineMap(F(1, 25), F(4, 5))
        for x in (F(0), F(1), F(5)):
            assert h(x) == f(g(x))

    @pytest.mark.parametrize(
        "ratio,offset,expected",
        [
            (F(1, 5), F(0), F(0)),
            (F(1, 5), F(4, 5), F(1)),
            (F(1, 25), F(4, 25), F(1, 6)),
        ],
    )
    def test_fixed_point(self, ratio, offset, expected):
        f = AffineMap(ratio, offset)
        assert f.fixed_point() == expected
        assert f(f.fixed_point()) == f.fixed_point()

    def test_apply_interval(self):
        unit = Interval(F(0), F(1))
        assert AffineMap(F(1, 5), F(0)).apply_interval(unit) == Interval(F(0), F(1, 5))
        assert AffineMap(F(1, 5), F(4, 25)).apply_interval(unit) == Interval(F(4, 25), F(9, 25))
        point = Interval(F(1, 3), F(1, 3))
        got = AffineMap(F(1, 2), F(1, 7)).apply_interval(point)
        assert got.is_point and got.lo == F(1, 2) * F(1, 3) + F(1, 7)

    @pytest.mark.parametrize(
        "ratio,offset,y,expected",
        [
            (F(1, 5), F(0), F(1, 5), F(1)),
            (F(1, 5), F(4, 25), F(1, 5), F(1, 5)),
            (F(1, 5), F(4, 5), F(5, 6), F(1, 6)),
        ],
    )
    def test_invert(self, ratio, offset, y, expected):
        f = AffineMap(ratio, offset)
        assert f.invert(y) == expected
        assert f(f.invert(y)) == y


class TestValueClasses:
    """The shared base of the value classes: construction, equality, freezing."""

    def test_positional_keyword_and_default_construction(self):
        assert CheckResult("gap", True) == CheckResult(name="gap", passed=True, detail="")
        assert CheckResult("gap", False, "why").detail == "why"
        assert Interval(F(0), F(1)) == Interval(hi=F(1), lo=F(0))
        assert AffineMap(F(1, 2), F(0)) == AffineMap(offset=F(0), ratio=F(1, 2))
        assert Cardinality("finite", 2) == Cardinality.finite(2)
        assert Cardinality("countable") == Cardinality(kind="countable", count=None, limit=None)
        assert Cardinality("finite", count=3) == Cardinality.finite(3)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CheckResult("gap"),
            lambda: CheckResult("gap", True, "why", "extra"),
            lambda: CheckResult("gap", True, colour="red"),
            lambda: CheckResult("gap", True, name="again"),
            lambda: Interval(F(0)),
            lambda: Interval(F(0), F(1), width=F(1)),
            lambda: Cardinality(),
            lambda: Cardinality("finite", size=2),
        ],
    )
    def test_missing_or_unknown_field_raises(self, build):
        with pytest.raises(TypeError):
            build()

    def test_checks_still_run(self):
        with pytest.raises(ValueError):
            Interval(F(1), F(0))
        with pytest.raises(ValueError):
            Interval(lo=F(1), hi=F(0))

    def test_equal_values_hash_equal(self):
        assert hash(Interval(F(1, 3), F(1, 2))) == hash(Interval(F(2, 6), F(3, 6)))
        assert hash(Cardinality.finite(4)) == hash(Cardinality("finite", count=4))
        assert {Cardinality.continuum(): 1}[Cardinality("continuum")] == 1
        assert Cardinality.finite(2) != Cardinality.finite(3)

    def test_classes_never_compare_equal(self):
        a, b = F(1, 2), F(3, 4)
        assert Interval(a, b) != AffineMap(a, b)
        assert Interval(a, b) != (a, b)

    def test_repr_names_the_fields(self):
        assert repr(CheckResult("gap", True)) == "CheckResult(name='gap', passed=True, detail='')"

    def test_fields_are_frozen(self):
        iv = Interval(F(0), F(1))
        with pytest.raises(AttributeError):
            iv.lo = F(1, 2)
        with pytest.raises(AttributeError):
            del iv.hi
        with pytest.raises(AttributeError):
            Cardinality.finite(2).count = 3
        assert iv == Interval(F(0), F(1))

    def test_harness_results_are_frozen_and_separate(self, quad, quad_report):
        first, second = (run_theorem_harness(quad, quad_report, 3) for _ in range(2))
        assert first == second
        for field in ("theorem", "applicable", "checks", "notes"):
            with pytest.raises(AttributeError):
                setattr(first, field, getattr(second, field))
        assert first.checks is not second.checks and first.notes is not second.notes
        first.checks.clear()
        first.notes.clear()
        assert len(second.checks) == 2 and len(second.notes) == 2
        with pytest.raises(TypeError):
            hash(second)  # its fields are lists

    def test_ifs_pieces_is_cached(self):
        ifs = Ifs.from_maps([AffineMap(F(1, 2), F(0)), AffineMap(F(1, 2), F(1, 2))])
        assert ifs.pieces is ifs.pieces
        assert ifs.pieces == (Interval(F(0), F(1, 2)), Interval(F(1, 2), F(1)))
        assert ifs == Ifs(ifs.maps, ifs.hull)  # the cached value stays out of equality


_ratios = st.fractions(min_value=F(1, 50), max_value=F(49, 50), max_denominator=50)
_coords = st.fractions(min_value=F(-10), max_value=F(10), max_denominator=60)


@given(
    r1=_ratios, b1=_coords, r2=_ratios, b2=_coords, x=_coords,
    word=st.lists(st.integers(1, 2), min_size=1, max_size=12),
)
def test_compose_agrees_pointwise(r1, b1, r2, b2, x, word):
    f, g = AffineMap(r1, b1), AffineMap(r2, b2)
    ifs = Ifs.from_maps([f, g])
    if ifs.maps[0] == f:
        assert ifs.compose_word((1, 2))(x) == f(g(x))
    if ifs.maps[-1] == f:
        assert ifs.compose_word((2, 1))(x) == f(g(x))
    y = x
    for d in reversed(word):  # the maps applied right to left
        y = ifs.map(d)(y)
    assert ifs.compose_word(word)(x) == y


@given(r=_ratios, b=_coords, x=_coords)
def test_invert_round_trip(r, b, x):
    f = AffineMap(r, b)
    assert f.invert(f(x)) == x
    assert f(f.invert(x)) == x


@given(r=_ratios, b=_coords)
def test_fixed_point_is_fixed(r, b):
    f = AffineMap(r, b)
    assert f(f.fixed_point()) == f.fixed_point()


@given(r=_ratios, b=_coords, lo=_coords, hi=_coords)
def test_interval_image_orientation(r, b, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    image = AffineMap(r, b).apply_interval(Interval(lo, hi))
    assert (image.lo < image.hi) == (lo < hi)
