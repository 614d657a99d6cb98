"""Angular interval helpers and the array interval form.

Property-based coverage for the circle-aware comparisons
(:func:`repro.intervals.angular_gap` and friends), the branch-cut
behaviour of :func:`repro.intervals.atan2_interval`, and the
population-array form :class:`repro.intervals.BoundedArray` against its
scalar reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.intervals import (
    BoundedArray,
    BoundedValue,
    angular_distance,
    angular_distance_array,
    angular_gap,
    angular_gap_array,
    angular_overlap,
    atan2_array,
    atan2_interval,
    hypot_array,
    hypot_interval,
)

TWO_PI = 2.0 * math.pi


def wrap(angle: float, period: float = TWO_PI) -> float:
    """Angle folded into [0, period)."""
    return angle % period


# ----------------------------------------------------------------------
# atan2_interval near the branch cut: containment modulo 2 pi
# ----------------------------------------------------------------------

# Boxes biased to hug the negative x axis, where the cut lives.
cut_boxes = st.tuples(
    st.floats(-2.0, -0.05),   # x centre (negative half plane)
    st.floats(-0.5, 0.5),     # y centre
    st.floats(0.0, 0.4),      # x halfwidth
    st.floats(0.0, 0.4),      # y halfwidth
)


@given(cut_boxes, st.data())
@settings(max_examples=200)
def test_atan2_containment_mod_2pi_near_cut(box, data):
    """Every attainable corner-to-interior angle stays inside the
    reported interval, modulo 2 pi — exactly the guarantee the fault
    dictionary's angular comparisons rely on."""
    cx, cy, hx, hy = box
    x = BoundedValue.from_halfwidth(cx, hx)
    y = BoundedValue.from_halfwidth(cy, hy)
    interval = atan2_interval(y, x)
    px = data.draw(st.floats(x.lower, x.upper))
    py = data.draw(st.floats(y.lower, y.upper))
    if px == 0.0 and py == 0.0:
        return
    angle = math.atan2(py, px)
    # Containment on the circle: some unwrapping of the attained angle
    # lies inside [lower, upper].
    k_low = math.ceil((interval.lower - angle) / TWO_PI)
    k_high = math.floor((interval.upper - angle) / TWO_PI)
    assert k_low <= k_high + 0, (
        f"angle {angle} escapes [{interval.lower}, {interval.upper}] mod 2pi"
    )


@given(cut_boxes)
@settings(max_examples=200)
def test_atan2_interval_is_contiguous_and_bounded(box):
    cx, cy, hx, hy = box
    x = BoundedValue.from_halfwidth(cx, hx)
    y = BoundedValue.from_halfwidth(cy, hy)
    interval = atan2_interval(y, x)
    assert interval.lower <= interval.value <= interval.upper
    assert interval.width <= TWO_PI + 1e-12


# ----------------------------------------------------------------------
# angular_gap / angular_overlap / angular_distance properties
# ----------------------------------------------------------------------

angles = st.floats(-720.0, 720.0)
halfwidths = st.floats(0.0, 60.0)


def interval_from(centre: float, halfwidth: float) -> BoundedValue:
    return BoundedValue.from_halfwidth(centre, halfwidth)


@given(angles, halfwidths, angles, halfwidths)
@settings(max_examples=300)
def test_gap_is_symmetric(ca, ha, cb, hb):
    a = interval_from(ca, ha)
    b = interval_from(cb, hb)
    assert angular_gap(a, b, 360.0) == pytest.approx(
        angular_gap(b, a, 360.0), abs=1e-9
    )


@given(angles, halfwidths, angles, halfwidths, st.floats(-360.0, 360.0))
@settings(max_examples=300)
def test_gap_is_rotation_invariant(ca, ha, cb, hb, shift):
    a = interval_from(ca, ha)
    b = interval_from(cb, hb)
    plain = angular_gap(a, b, 360.0)
    turned = angular_gap(a.shift(shift), b.shift(shift), 360.0)
    assert turned == pytest.approx(plain, abs=1e-9)


@given(angles, halfwidths, angles, halfwidths)
@settings(max_examples=300)
def test_gap_attainability(ca, ha, cb, hb):
    """The gap never exceeds the distance between any two attainable
    angles — in particular the two centres."""
    a = interval_from(ca, ha)
    b = interval_from(cb, hb)
    assert angular_gap(a, b, 360.0) <= (
        angular_distance(ca, cb, 360.0) + 1e-9
    )


@given(angles, halfwidths)
@settings(max_examples=200)
def test_interval_overlaps_itself(centre, halfwidth):
    a = interval_from(centre, halfwidth)
    assert angular_overlap(a, a, 360.0)
    assert angular_gap(a, a, 360.0) == 0.0


@given(angles, angles)
@settings(max_examples=300)
def test_distance_matches_point_interval_gap(x, y):
    gap = angular_gap(
        BoundedValue.exact(x), BoundedValue.exact(y), 360.0
    )
    assert gap == pytest.approx(angular_distance(x, y, 360.0), abs=1e-9)


#: Arc endpoint pairs where the circle and the floats are at their edges:
#: the branch cut, full circles, signed zeros, and starts whose
#: difference overflows (the gap and the distance are NaN there).
EDGE_ARCS = [
    ((174.0, 186.0), (-180.0, -178.0)),
    ((0.0, 360.0), (12.0, 13.0)),
    ((5.0, 5.0), (6.0, 6.0)),
    ((-0.0, 0.0), (0.0, -0.0)),
    ((0.0, 1.0), (-1.0, -0.0)),
    ((-1e308, -1e308), (1e308, 1e308)),
    ((1e308, 1e308), (-1e308, -1e308)),
    ((-1.7e308, -1.7e308), (1.7e308, 1.7e308)),
]


def same_float(x: float, y) -> bool:
    """Equal bit for bit (signed zeros apart), or both NaN of any payload."""
    y = float(y)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return np.float64(x).tobytes() == np.float64(y).tobytes()


@pytest.mark.parametrize("arc_a, arc_b", EDGE_ARCS)
def test_scalar_and_array_forms_agree(arc_a, arc_b):
    """Never an exception; NaN where the starts' difference overflows."""
    a, b = (BoundedValue(lower, lower, upper) for lower, upper in (arc_a, arc_b))
    gap = angular_gap(a, b, 360.0)
    assert same_float(gap, angular_gap_array(a.lower, a.upper, b.lower, b.upper, 360.0))
    distance = angular_distance(a.lower, b.lower, 360.0)
    assert same_float(distance, angular_distance_array(a.lower, b.lower, 360.0))
    assert math.isnan(gap) == math.isnan(distance) == math.isinf(b.lower - a.lower)


class TestAngularCases:
    def test_linear_overlap_is_angular_overlap(self):
        a = BoundedValue.from_bounds(10.0, 20.0)
        b = BoundedValue.from_bounds(18.0, 30.0)
        assert angular_overlap(a, b, 360.0)

    def test_cut_straddling_overlap(self):
        """The motivating case: [3.04, 3.24] rad overlaps [-3.14, -3.10] rad."""
        a = BoundedValue.from_bounds(3.04, 3.24)
        b = BoundedValue.from_bounds(-3.14, -3.10)
        assert angular_gap(a, b) == 0.0
        assert angular_overlap(a, b)

    def test_gap_takes_the_short_way_round(self):
        a = BoundedValue.from_bounds(170.0, 175.0)
        b = BoundedValue.from_bounds(-175.0, -170.0)
        # 10 degrees across the cut, not 340 the long way.
        assert angular_gap(a, b, 360.0) == pytest.approx(10.0)

    def test_full_circle_overlaps_everything(self):
        full = BoundedValue.from_bounds(-180.0, 180.0)
        assert angular_overlap(full, BoundedValue.exact(77.0), 360.0)
        wider = BoundedValue.from_bounds(-200.0, 200.0)
        assert angular_overlap(wider, BoundedValue.exact(-130.0), 360.0)

    def test_bad_period_rejected(self):
        a = BoundedValue.exact(0.0)
        with pytest.raises(ConfigError):
            angular_gap(a, a, 0.0)
        with pytest.raises(ConfigError):
            angular_distance(0.0, 1.0, -360.0)


# ----------------------------------------------------------------------
# BoundedArray against the scalar reference
# ----------------------------------------------------------------------

box_arrays = st.lists(
    st.tuples(
        st.floats(-50.0, 50.0), st.floats(0.0, 5.0),
        st.floats(-50.0, 50.0), st.floats(0.0, 5.0),
    ),
    min_size=1,
    max_size=8,
)


@given(box_arrays)
@settings(max_examples=150)
def test_hypot_array_matches_scalar(boxes):
    x = BoundedArray(
        np.array([b[0] for b in boxes]),
        np.array([b[0] - b[1] for b in boxes]),
        np.array([b[0] + b[1] for b in boxes]),
    )
    y = BoundedArray(
        np.array([b[2] for b in boxes]),
        np.array([b[2] - b[3] for b in boxes]),
        np.array([b[2] + b[3] for b in boxes]),
    )
    batched = hypot_array(x, y)
    for i, (cx, hx, cy, hy) in enumerate(boxes):
        scalar = hypot_interval(
            BoundedValue.from_halfwidth(cx, hx), BoundedValue.from_halfwidth(cy, hy)
        )
        got = batched.item(i)
        assert got.lower == pytest.approx(scalar.lower, rel=1e-12, abs=1e-12)
        assert got.upper == pytest.approx(scalar.upper, rel=1e-12, abs=1e-12)
        assert got.value == pytest.approx(scalar.value, rel=1e-12, abs=1e-12)


@given(box_arrays)
@settings(max_examples=150)
def test_atan2_array_matches_scalar(boxes):
    y = BoundedArray(
        np.array([b[0] for b in boxes]),
        np.array([b[0] - b[1] for b in boxes]),
        np.array([b[0] + b[1] for b in boxes]),
    )
    x = BoundedArray(
        np.array([b[2] for b in boxes]),
        np.array([b[2] - b[3] for b in boxes]),
        np.array([b[2] + b[3] for b in boxes]),
    )
    batched = atan2_array(y, x)
    for i, (cy, hy, cx, hx) in enumerate(boxes):
        scalar = atan2_interval(
            BoundedValue.from_halfwidth(cy, hy), BoundedValue.from_halfwidth(cx, hx)
        )
        got = batched.item(i)
        assert got.lower == pytest.approx(scalar.lower, rel=1e-12, abs=1e-12)
        assert got.upper == pytest.approx(scalar.upper, rel=1e-12, abs=1e-12)
        assert got.value == pytest.approx(scalar.value, rel=1e-12, abs=1e-12)


class TestBoundedArrayOps:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            BoundedArray(np.zeros(2), np.zeros(3), np.zeros(3))

    def test_ordering_enforced(self):
        with pytest.raises(ConfigError):
            BoundedArray(np.zeros(2), np.ones(2), np.zeros(2))

    def test_affine_ops_match_scalar(self):
        scalars = [BoundedValue(1.0, 0.5, 2.0), BoundedValue(-3.0, -4.0, -2.5)]
        arr = BoundedArray(
            np.array([s.value for s in scalars]),
            np.array([s.lower for s in scalars]),
            np.array([s.upper for s in scalars]),
        )
        for factor in (2.5, -1.5):
            batched = arr.scale(factor)
            for i, s in enumerate(scalars):
                assert batched.item(i) == s.scale(factor)
        shifted = arr.shift(0.7)
        widened = arr.widen(0.1)
        negated = -arr
        clamped = arr.clamp_nonnegative()
        for i, s in enumerate(scalars):
            assert shifted.item(i) == s.shift(0.7)
            assert widened.item(i) == s.widen(0.1)
            assert negated.item(i) == -s
            assert clamped.item(i) == s.clamp_nonnegative()

    def test_div_and_sub_scalar_match(self):
        arr = BoundedArray(
            np.array([1.0, -2.0]), np.array([0.8, -2.5]), np.array([1.3, -1.0])
        )
        divisor = BoundedValue(2.0, 1.9, 2.2)
        subtrahend = BoundedValue(0.3, 0.2, 0.4)
        divided = arr.div_scalar(divisor)
        subtracted = arr.sub_scalar(subtrahend)
        for i in range(2):
            scalar = arr.item(i)
            assert divided.item(i) == scalar / divisor
            assert subtracted.item(i) == scalar - subtrahend

    def test_division_by_zero_straddling_interval_rejected(self):
        arr = BoundedArray(np.ones(1), np.ones(1), np.ones(1))
        with pytest.raises(ConfigError):
            arr.div_scalar(BoundedValue(0.0, -1.0, 1.0))

    def test_negative_widen_rejected(self):
        arr = BoundedArray(np.ones(1), np.ones(1), np.ones(1))
        with pytest.raises(ConfigError):
            arr.widen(-0.1)

    def test_from_scalar_and_item_round_trip(self):
        scalar = BoundedValue(1.0, 0.0, 2.0)
        arr = BoundedArray.from_scalar(scalar, 3)
        assert len(arr) == 3
        assert arr.item(2) == scalar
