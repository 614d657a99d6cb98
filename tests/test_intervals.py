"""Interval arithmetic: correctness and conservative-containment properties.

The error bands of the paper's Fig. 10 are only trustworthy if every
interval operation is *conservative*: any value attainable from inputs
inside their intervals must lie inside the output interval.  The
hypothesis tests check exactly that by sampling concrete points.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.intervals import (
    BoundedValue,
    atan2_interval,
    hypot_interval,
    intersection,
    union,
)


def bounded_values(min_value=-1e6, max_value=1e6, max_width=1e3):
    """Strategy producing valid BoundedValue instances."""
    return st.builds(
        lambda centre, w, bias: BoundedValue(
            min(max(centre + bias * w, centre - w), centre + w),
            centre - w,
            centre + w,
        ),
        st.floats(min_value=min_value, max_value=max_value, allow_nan=False),
        st.floats(min_value=0.0, max_value=max_width, allow_nan=False),
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    )


def points_inside(bv: BoundedValue):
    """Strategy of points inside a given interval."""
    return st.floats(min_value=0.0, max_value=1.0, allow_nan=False).map(
        lambda t: bv.lower + t * (bv.upper - bv.lower)
    )


class TestConstruction:
    def test_exact_has_zero_width(self):
        bv = BoundedValue.exact(3.0)
        assert bv.width == 0.0
        assert bv.contains(3.0)

    def test_from_halfwidth(self):
        bv = BoundedValue.from_halfwidth(1.0, 0.25)
        assert bv.lower == 0.75
        assert bv.upper == 1.25
        assert bv.halfwidth == pytest.approx(0.25)

    def test_from_bounds_default_midpoint(self):
        bv = BoundedValue.from_bounds(0.0, 2.0)
        assert bv.value == 1.0

    @pytest.mark.parametrize(
        ("lower", "upper", "midpoint"),
        [(-1e308, -1e308, -1e308), (1e308, 1.7e308, 1.35e308)],
    )
    def test_from_bounds_midpoint_survives_overflowing_sum(
        self, lower, upper, midpoint
    ):
        """``lower + upper`` overflows; the midpoint halves each bound."""
        bv = BoundedValue.from_bounds(lower, upper)
        assert (bv.lower, bv.value, bv.upper) == (lower, midpoint, upper)

    def test_from_bounds_midpoint_keeps_its_bits(self):
        """Where the sum is finite the midpoint is ``0.5 * (lower +
        upper)``, which can differ from ``0.5*lower + 0.5*upper``."""
        lower, upper = 5e-324, 5e-324
        assert 0.5 * (lower + upper) != 0.5 * lower + 0.5 * upper
        assert BoundedValue.from_bounds(lower, upper).value == 0.5 * (lower + upper)

    def test_ordering_violation_raises(self):
        with pytest.raises(ConfigError):
            BoundedValue(5.0, 0.0, 1.0)

    def test_negative_halfwidth_raises(self):
        with pytest.raises(ConfigError):
            BoundedValue.from_halfwidth(0.0, -1.0)

    def test_nan_rejected(self):
        with pytest.raises(ConfigError):
            BoundedValue(float("nan"), 0.0, 1.0)

    def test_inverted_bounds_raise(self):
        with pytest.raises(ConfigError):
            BoundedValue.from_bounds(2.0, 1.0)


class TestBasicOps:
    def test_add(self):
        a = BoundedValue.from_halfwidth(1.0, 0.1)
        b = BoundedValue.from_halfwidth(2.0, 0.2)
        c = a + b
        assert c.value == pytest.approx(3.0)
        assert c.lower == pytest.approx(2.7)
        assert c.upper == pytest.approx(3.3)

    def test_add_scalar(self):
        c = BoundedValue.from_halfwidth(1.0, 0.1) + 5.0
        assert c.value == pytest.approx(6.0)
        assert c.width == pytest.approx(0.2)

    def test_sub(self):
        a = BoundedValue.from_halfwidth(1.0, 0.1)
        b = BoundedValue.from_halfwidth(2.0, 0.2)
        c = b - a
        assert c.value == pytest.approx(1.0)
        assert c.width == pytest.approx(0.6)

    def test_neg_flips_bounds(self):
        bv = BoundedValue(1.0, 0.5, 2.0)
        n = -bv
        assert n.lower == -2.0 and n.upper == -0.5 and n.value == -1.0

    def test_mul_signs(self):
        a = BoundedValue(-1.0, -2.0, 1.0)
        b = BoundedValue(3.0, 2.0, 4.0)
        c = a * b
        assert c.lower == pytest.approx(-8.0)
        assert c.upper == pytest.approx(4.0)

    def test_scale_negative_factor(self):
        bv = BoundedValue(1.0, 0.5, 2.0).scale(-2.0)
        assert bv.lower == -4.0 and bv.upper == -1.0

    def test_division_by_zero_straddling_interval_raises(self):
        a = BoundedValue.exact(1.0)
        b = BoundedValue(0.0, -1.0, 1.0)
        with pytest.raises(ConfigError):
            a / b

    def test_division_value(self):
        a = BoundedValue.from_halfwidth(6.0, 0.6)
        b = BoundedValue.from_halfwidth(2.0, 0.2)
        c = a / b
        assert c.value == pytest.approx(3.0)
        assert c.contains(6.6 / 1.8) and c.contains(5.4 / 2.2)

    def test_square_straddling_zero_has_zero_lower(self):
        bv = BoundedValue(0.5, -1.0, 2.0).square()
        assert bv.lower == 0.0
        assert bv.upper == 4.0

    def test_sqrt_clamps_at_zero(self):
        bv = BoundedValue(0.5, -0.25, 1.0).sqrt()
        assert bv.lower == 0.0
        assert bv.upper == 1.0

    def test_sqrt_of_negative_interval_raises(self):
        with pytest.raises(ConfigError):
            BoundedValue(-2.0, -3.0, -1.0).sqrt()

    def test_abs(self):
        bv = BoundedValue(-1.0, -3.0, -0.5).abs()
        assert bv.lower == 0.5 and bv.upper == 3.0

    def test_clamp_nonnegative(self):
        bv = BoundedValue(0.1, -0.2, 0.4).clamp_nonnegative()
        assert bv.lower == 0.0
        assert bv.value == 0.1

    def test_widen(self):
        bv = BoundedValue.exact(1.0).widen(0.5)
        assert bv.lower == 0.5 and bv.upper == 1.5

    def test_widen_negative_raises(self):
        with pytest.raises(ConfigError):
            BoundedValue.exact(1.0).widen(-0.1)

    def test_format(self):
        text = format(BoundedValue(1.0, 0.9, 1.1), ".2f")
        assert text == "1.00 [0.90, 1.10]"


class TestSetOps:
    def test_union_contains_both(self):
        a = BoundedValue.from_halfwidth(0.0, 1.0)
        b = BoundedValue.from_halfwidth(5.0, 1.0)
        u = union(a, b)
        assert u.lower == -1.0 and u.upper == 6.0

    def test_intersection(self):
        a = BoundedValue.from_bounds(0.0, 2.0)
        b = BoundedValue.from_bounds(1.0, 3.0)
        i = intersection(a, b)
        assert i.lower == 1.0 and i.upper == 2.0

    def test_disjoint_intersection_raises(self):
        with pytest.raises(ConfigError):
            intersection(BoundedValue.from_bounds(0, 1), BoundedValue.from_bounds(2, 3))


class TestHypot:
    def test_point_case(self):
        h = hypot_interval(BoundedValue.exact(3.0), BoundedValue.exact(4.0))
        assert h.value == pytest.approx(5.0)
        assert h.width == pytest.approx(0.0, abs=1e-12)

    def test_rectangle_containing_origin_reaches_zero(self):
        h = hypot_interval(
            BoundedValue(0.0, -1.0, 1.0), BoundedValue(0.0, -1.0, 1.0)
        )
        assert h.lower == 0.0
        assert h.upper == pytest.approx(math.sqrt(2.0))


class TestAtan2:
    def test_point_case(self):
        a = atan2_interval(BoundedValue.exact(1.0), BoundedValue.exact(1.0))
        assert a.value == pytest.approx(math.pi / 4)
        assert a.width == pytest.approx(0.0, abs=1e-12)

    def test_origin_in_box_gives_full_circle(self):
        a = atan2_interval(
            BoundedValue(0.0, -1.0, 1.0), BoundedValue(0.0, -1.0, 1.0)
        )
        assert a.width == pytest.approx(2 * math.pi)

    def test_branch_cut_crossing_is_contiguous(self):
        # Box straddles the negative x axis: angles near +/-pi.
        y = BoundedValue(0.0, -0.1, 0.1)
        x = BoundedValue(-1.0, -1.1, -0.9)
        a = atan2_interval(y, x)
        # Contiguous interval around pi (may exceed pi for continuity).
        assert a.width < 0.3
        assert a.contains(a.value)


# ----------------------------------------------------------------------
# Conservative-containment properties
# ----------------------------------------------------------------------
@given(bounded_values(), bounded_values(), st.data())
def test_add_is_conservative(a, b, data):
    x = data.draw(points_inside(a))
    y = data.draw(points_inside(b))
    assert (a + b).contains(x + y)


@given(bounded_values(max_value=1e3, min_value=-1e3, max_width=10),
       bounded_values(max_value=1e3, min_value=-1e3, max_width=10),
       st.data())
def test_mul_is_conservative(a, b, data):
    x = data.draw(points_inside(a))
    y = data.draw(points_inside(b))
    result = a * b
    # Tolerate float rounding at the extremes.
    slack = 1e-9 * max(1.0, abs(result.lower), abs(result.upper))
    assert result.lower - slack <= x * y <= result.upper + slack


@given(bounded_values(min_value=-50, max_value=50, max_width=5), st.data())
def test_square_is_conservative(a, data):
    x = data.draw(points_inside(a))
    result = a.square()
    slack = 1e-9 * max(1.0, result.upper)
    assert result.lower - slack <= x * x <= result.upper + slack


@given(bounded_values(min_value=-20, max_value=20, max_width=4),
       bounded_values(min_value=-20, max_value=20, max_width=4),
       st.data())
def test_hypot_is_conservative(a, b, data):
    x = data.draw(points_inside(a))
    y = data.draw(points_inside(b))
    result = hypot_interval(a, b)
    slack = 1e-9 * max(1.0, result.upper)
    assert result.lower - slack <= math.hypot(x, y) <= result.upper + slack


@given(bounded_values(min_value=-20, max_value=20, max_width=3),
       bounded_values(min_value=-20, max_value=20, max_width=3),
       st.data())
def test_atan2_is_conservative(a, b, data):
    y = data.draw(points_inside(a))
    x = data.draw(points_inside(b))
    result = atan2_interval(a, b)
    angle = math.atan2(y, x)
    # Compare modulo 2 pi against the (possibly unwrapped) interval.
    candidates = (angle, angle + 2 * math.pi, angle - 2 * math.pi)
    assert any(
        result.lower - 1e-9 <= c <= result.upper + 1e-9 for c in candidates
    )


@given(bounded_values(), st.floats(min_value=0, max_value=100, allow_nan=False))
def test_widen_monotone(a, margin):
    wide = a.widen(margin)
    assert wide.lower <= a.lower and wide.upper >= a.upper
