"""Interval ("bounded value") arithmetic for measurement error bounds.

The paper's equations (3)-(5) do not return point estimates: each measured
quantity (DC level ``B``, harmonic amplitude ``A_k``, phase ``phi_k``) is
*confined to a bounded interval* because the sigma-delta signatures carry a
bounded quantization error ``eps in [-4, 4]`` counts.  The error bands drawn
in the paper's Fig. 10a/b are exactly these intervals.

:class:`BoundedValue` carries a point estimate plus guaranteed lower/upper
bounds and implements the small set of operations the signature DSP needs:
affine maps, products, quotients, Euclidean norm of two intervals, and the
angular range of a rectangle (for the phase estimate).  All operations are
*conservative*: the result interval always contains every value attainable
from inputs inside their intervals.

Two extensions serve the rest of the system:

* :class:`BoundedArray` is the population form of :class:`BoundedValue`:
  one interval per array element, with the same conservative semantics,
  implemented as whole-array NumPy operations.  The vectorized batch
  backend (:mod:`repro.engine.vectorized`) pushes entire device
  populations through the signature arithmetic with it.
* **Angular helpers** (:func:`angular_gap`, :func:`angular_overlap`,
  :func:`angular_distance`) compare *phase* intervals on the circle.
  :func:`atan2_interval` deliberately unwraps around the centre angle so
  a phase interval stays contiguous across the ``+/-pi`` branch cut —
  which means a linear endpoint comparison of two physically identical
  phases can silently fail (``[3.04, 3.24]`` rad never linearly overlaps
  ``[-3.14, -3.10]`` rad).  Every phase-interval comparison must go
  through the angular helpers, which work modulo the period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .errors import ConfigError


@dataclass(frozen=True)
class BoundedValue:
    """A point estimate with guaranteed lower/upper bounds.

    Attributes
    ----------
    value:
        Point (best) estimate, always inside ``[lower, upper]``.
    lower, upper:
        Guaranteed bounds: the true quantity lies inside this interval
        provided the model assumptions (bounded sigma-delta error) hold.
    """

    value: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if math.isnan(self.value) or math.isnan(self.lower) or math.isnan(self.upper):
            raise ConfigError("BoundedValue does not accept NaN endpoints")
        if not (self.lower <= self.value <= self.upper):
            raise ConfigError(
                f"BoundedValue ordering violated: {self.lower} <= {self.value} <= {self.upper}"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def exact(cls, value: float) -> "BoundedValue":
        """An interval of zero width."""
        value = float(value)
        return cls(value, value, value)

    @classmethod
    def from_halfwidth(cls, value: float, halfwidth: float) -> "BoundedValue":
        """Symmetric interval ``value +/- halfwidth`` (halfwidth >= 0)."""
        if halfwidth < 0:
            raise ConfigError(f"halfwidth must be >= 0, got {halfwidth}")
        value = float(value)
        return cls(value, value - halfwidth, value + halfwidth)

    @classmethod
    def from_bounds(cls, lower: float, upper: float, value: float | None = None) -> "BoundedValue":
        """Interval from endpoints; point estimate defaults to the midpoint.

        The midpoint is ``0.5 * (lower + upper)``, or ``0.5 * lower + 0.5
        * upper`` where that sum overflows between finite bounds.
        """
        lower = float(lower)
        upper = float(upper)
        if lower > upper:
            raise ConfigError(f"lower bound {lower} exceeds upper bound {upper}")
        if value is None:
            value = 0.5 * (lower + upper)
            finite = math.isfinite(lower) and math.isfinite(upper)
            if finite and not math.isfinite(value):
                value = 0.5 * lower + 0.5 * upper
        return cls(float(value), lower, upper)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        """Total width of the interval."""
        return self.upper - self.lower

    @property
    def halfwidth(self) -> float:
        """Half the interval width (the "error bar")."""
        return 0.5 * self.width

    @property
    def midpoint(self) -> float:
        """Centre of the interval (not necessarily the point estimate)."""
        return 0.5 * (self.lower + self.upper)

    def contains(self, x: float) -> bool:
        """True if ``x`` lies inside the interval (inclusive)."""
        return self.lower <= x <= self.upper

    def straddles_zero(self) -> bool:
        """True if the interval includes both signs (or zero)."""
        return self.lower <= 0.0 <= self.upper

    # ------------------------------------------------------------------
    # Arithmetic (conservative interval semantics)
    # ------------------------------------------------------------------
    def _coerce(self, other: "BoundedValue | float | int") -> "BoundedValue":
        if isinstance(other, BoundedValue):
            return other
        return BoundedValue.exact(float(other))

    def __add__(self, other: "BoundedValue | float | int") -> "BoundedValue":
        other = self._coerce(other)
        return BoundedValue(
            self.value + other.value, self.lower + other.lower, self.upper + other.upper
        )

    __radd__ = __add__

    def __neg__(self) -> "BoundedValue":
        return BoundedValue(-self.value, -self.upper, -self.lower)

    def __sub__(self, other: "BoundedValue | float | int") -> "BoundedValue":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "BoundedValue | float | int") -> "BoundedValue":
        return self._coerce(other) + (-self)

    def __mul__(self, other: "BoundedValue | float | int") -> "BoundedValue":
        other = self._coerce(other)
        products = (
            self.lower * other.lower,
            self.lower * other.upper,
            self.upper * other.lower,
            self.upper * other.upper,
        )
        return BoundedValue(self.value * other.value, min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other: "BoundedValue | float | int") -> "BoundedValue":
        other = self._coerce(other)
        if other.straddles_zero():
            raise ConfigError("interval division by an interval containing zero")
        reciprocals = (1.0 / other.lower, 1.0 / other.upper)
        recip = BoundedValue(1.0 / other.value, min(reciprocals), max(reciprocals))
        return self * recip

    def __rtruediv__(self, other: "BoundedValue | float | int") -> "BoundedValue":
        return self._coerce(other) / self

    def scale(self, factor: float) -> "BoundedValue":
        """Multiply by an exact scalar (cheaper and tighter than ``__mul__``)."""
        factor = float(factor)
        lo = self.lower * factor
        hi = self.upper * factor
        if factor < 0:
            lo, hi = hi, lo
        return BoundedValue(self.value * factor, lo, hi)

    def shift(self, offset: float) -> "BoundedValue":
        """Add an exact scalar."""
        offset = float(offset)
        return BoundedValue(self.value + offset, self.lower + offset, self.upper + offset)

    def square(self) -> "BoundedValue":
        """Interval of ``x**2`` for ``x`` in the interval."""
        lo_sq = self.lower * self.lower
        hi_sq = self.upper * self.upper
        upper = max(lo_sq, hi_sq)
        lower = 0.0 if self.straddles_zero() else min(lo_sq, hi_sq)
        return BoundedValue(self.value * self.value, lower, upper)

    def sqrt(self) -> "BoundedValue":
        """Interval square root; the domain is clamped at zero."""
        if self.upper < 0:
            raise ConfigError("sqrt of an entirely negative interval")
        lower = math.sqrt(max(self.lower, 0.0))
        upper = math.sqrt(max(self.upper, 0.0))
        value = math.sqrt(max(self.value, 0.0))
        return BoundedValue(value, lower, upper)

    def abs(self) -> "BoundedValue":
        """Interval of ``|x|``."""
        if self.straddles_zero():
            return BoundedValue(abs(self.value), 0.0, max(-self.lower, self.upper))
        lo = min(abs(self.lower), abs(self.upper))
        hi = max(abs(self.lower), abs(self.upper))
        return BoundedValue(abs(self.value), lo, hi)

    def clamp_nonnegative(self) -> "BoundedValue":
        """Clamp the interval (and estimate) to ``>= 0``.

        Physical amplitudes cannot be negative; when the error bound is
        wider than the estimate the raw interval may dip below zero.
        """
        return BoundedValue(
            max(self.value, 0.0), max(self.lower, 0.0), max(self.upper, 0.0)
        )

    def widen(self, margin: float) -> "BoundedValue":
        """Grow both bounds outward by ``margin >= 0``."""
        if margin < 0:
            raise ConfigError(f"margin must be >= 0, got {margin}")
        return BoundedValue(self.value, self.lower - margin, self.upper + margin)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def __format__(self, spec: str) -> str:
        spec = spec or ".6g"
        return (
            f"{self.value:{spec}} [{self.lower:{spec}}, {self.upper:{spec}}]"
        )

    def __str__(self) -> str:
        return format(self)


def hypot_interval(x: BoundedValue, y: BoundedValue, value: float | None = None) -> BoundedValue:
    """Interval of ``sqrt(x^2 + y^2)`` for ``(x, y)`` inside the rectangle.

    This is the amplitude expression of the paper's equation (4): the
    signatures ``I1k`` and ``I2k`` each carry an additive error ``eps`` in
    ``[-4, 4]``, so the amplitude estimate lies between the smallest and
    largest distance from the origin to the error rectangle.
    """
    sq = x.square() + y.square()
    result = sq.sqrt()
    if value is None:
        value = math.hypot(x.value, y.value)
    # The direct hypot of the point estimates can differ from the interval
    # endpoints by a last-bit rounding error; clamp it in.
    value = min(max(value, result.lower), result.upper)
    return BoundedValue(value, result.lower, result.upper)


def atan2_interval(y: BoundedValue, x: BoundedValue) -> BoundedValue:
    """Angular range (radians) of the rectangle ``[x.lower,x.upper] x [y...]``.

    This is the phase expression of the paper's equation (5).  The extreme
    angles of a convex region not containing the origin are attained at its
    vertices; corner angles are unwrapped around the centre angle so the
    result is a contiguous interval even across the ``+/-pi`` branch cut
    (the caller may wrap for display).  If the rectangle contains the
    origin, the phase is unconstrained and the full circle is returned.
    """
    if x.straddles_zero() and y.straddles_zero():
        centre = math.atan2(y.value, x.value)
        return BoundedValue(centre, centre - math.pi, centre + math.pi)

    centre = math.atan2(y.value, x.value)
    corners = (
        (x.lower, y.lower),
        (x.lower, y.upper),
        (x.upper, y.lower),
        (x.upper, y.upper),
    )
    rel_angles = []
    for cx, cy in corners:
        angle = math.atan2(cy, cx)
        rel = angle - centre
        # Unwrap into (-pi, pi] around the centre angle: sound because a
        # convex set avoiding the origin subtends at most a half turn.
        while rel <= -math.pi:
            rel += 2.0 * math.pi
        while rel > math.pi:
            rel -= 2.0 * math.pi
        rel_angles.append(rel)
        # A box grazing the origin can subtend exactly pi; the unwrap
        # direction is then ambiguous — include both endpoints so the
        # interval stays conservative.
        if abs(abs(rel) - math.pi) < 1e-9:
            rel_angles.append(-rel)
    lower = centre + min(rel_angles)
    upper = centre + max(rel_angles)
    # Edges of the rectangle can also be tangent points only at vertices,
    # except when an axis crossing lets the angle reach an extremum on an
    # edge interior: that happens only if the rectangle crosses one of the
    # coordinate axes; crossing the ray through the centre is impossible
    # for a convex region avoiding the origin, so vertices suffice.
    return BoundedValue(centre, min(lower, centre), max(upper, centre))


def union(a: BoundedValue, b: BoundedValue) -> BoundedValue:
    """Smallest interval containing both inputs (point estimate: midpoint of a/b)."""
    return BoundedValue(
        0.5 * (a.value + b.value), min(a.lower, b.lower), max(a.upper, b.upper)
    )


def intersection(a: BoundedValue, b: BoundedValue) -> BoundedValue:
    """Intersection of two intervals; raises if they are disjoint."""
    lower = max(a.lower, b.lower)
    upper = min(a.upper, b.upper)
    if lower > upper:
        raise ConfigError("intervals are disjoint")
    value = min(max(0.5 * (a.value + b.value), lower), upper)
    return BoundedValue(value, lower, upper)


# ----------------------------------------------------------------------
# Angular (circular) interval comparisons
# ----------------------------------------------------------------------

TWO_PI = 2.0 * math.pi


def angular_distance(x: float, y: float, period: float = TWO_PI) -> float:
    """Shortest distance between two angles on the circle.

    Always in ``[0, period/2]``; invariant under rotating both angles by
    the same amount and under adding any multiple of ``period`` to
    either.  NaN where the difference is infinite (an infinite angle, or
    finite ones whose difference overflows), as in
    :func:`angular_distance_array`.
    """
    if not period > 0:
        raise ConfigError(f"period must be positive, got {period!r}")
    difference = x - y
    if math.isinf(difference):
        return math.nan
    d = math.fmod(difference, period)
    if d < 0:
        d += period
    return min(d, period - d)


def angular_gap(a: BoundedValue, b: BoundedValue, period: float = TWO_PI) -> float:
    """Distance between two *angular* intervals, modulo the period.

    The intervals are arcs on the circle: ``a`` covers the directed arc
    from ``a.lower`` to ``a.upper``.  The gap is the smallest angular
    distance between any point of one arc and any point of the other —
    0 when the arcs intersect anywhere on the circle, even when their
    linear representations sit on opposite sides of the branch cut
    (``[174, 186]`` degrees overlaps ``[-180, -178]`` degrees).  An arc
    spanning a full period covers the whole circle and overlaps
    everything.  Otherwise the gap is NaN where the starts' difference
    is infinite (finite starts whose difference overflows), as in
    :func:`angular_gap_array`.
    """
    if not period > 0:
        raise ConfigError(f"period must be positive, got {period!r}")
    width_a = a.width
    width_b = b.width
    if width_a >= period or width_b >= period:
        return 0.0
    # Place B's start relative to A's start, wrapped into [0, period).
    offset = b.lower - a.lower
    if math.isinf(offset):
        return math.nan
    start = math.fmod(offset, period)
    if start < 0:
        start += period
    if start <= width_a or start + width_b >= period:
        return 0.0
    # Two ways around the circle from arc A to arc B; report the shorter.
    return min(start - width_a, period - start - width_b)


def angular_distance_array(
    x: "npt.ArrayLike", y: "npt.ArrayLike", period: float = TWO_PI
) -> np.ndarray:
    """:func:`angular_distance` elementwise, bit for bit.

    Every step is the scalar form's own IEEE operation (subtract,
    ``fmod``, add, compare), so each element equals the scalar result,
    NaN where the difference is infinite included.
    """
    if not period > 0:
        raise ConfigError(f"period must be positive, got {period!r}")
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.fmod(_as_float_array(x) - _as_float_array(y), period)
        d = np.where(d < 0, d + period, d)
        other = period - d
    return np.where(other < d, other, d)  # min(d, other): ties keep d


def angular_gap_array(
    a_lower: "npt.ArrayLike",
    a_upper: "npt.ArrayLike",
    b_lower: "npt.ArrayLike",
    b_upper: "npt.ArrayLike",
    period: float = TWO_PI,
) -> np.ndarray:
    """:func:`angular_gap` elementwise over arc endpoint arrays, bit for bit.

    Arc ``a`` runs from ``a_lower`` to ``a_upper`` and arc ``b`` from
    ``b_lower`` to ``b_upper``; the arrays broadcast.  Only subtraction,
    ``fmod``, addition and comparisons are used, each exact or
    correctly rounded as in the scalar form, and ``min`` keeps its
    first argument on ties, so each element equals
    ``angular_gap(a, b, period)`` including the sign of zero and the NaN
    of an overflowing starts' difference.
    """
    if not period > 0:
        raise ConfigError(f"period must be positive, got {period!r}")
    a_start = _as_float_array(a_lower)
    b_start = _as_float_array(b_lower)
    with np.errstate(invalid="ignore", over="ignore"):
        width_a = _as_float_array(a_upper) - a_start
        width_b = _as_float_array(b_upper) - b_start
        start = np.fmod(b_start - a_start, period)
        start = np.where(start < 0, start + period, start)
        overlap = (
            (width_a >= period)
            | (width_b >= period)
            | (start <= width_a)
            | (start + width_b >= period)
        )
        forward = start - width_a
        backward = period - start - width_b
    gap = np.where(backward < forward, backward, forward)
    return np.where(overlap, 0.0, gap)


def angular_overlap(a: BoundedValue, b: BoundedValue, period: float = TWO_PI) -> bool:
    """True when two angular intervals intersect anywhere on the circle."""
    return angular_gap(a, b, period) == 0.0


# ----------------------------------------------------------------------
# Population (array) form
# ----------------------------------------------------------------------


def _as_float_array(x: "npt.ArrayLike") -> np.ndarray:
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class BoundedArray:
    """An array of intervals: the population form of :class:`BoundedValue`.

    Element ``i`` is the interval ``[lower[i], upper[i]]`` with point
    estimate ``value[i]``.  Operations mirror :class:`BoundedValue`'s
    with identical conservative semantics, executed as whole-array NumPy
    expressions — this is what lets the vectorized batch backend push an
    entire device population through the signature/interval arithmetic
    in a handful of array operations instead of a Python loop per device.
    """

    value: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        value = _as_float_array(self.value)
        lower = _as_float_array(self.lower)
        upper = _as_float_array(self.upper)
        if not (value.shape == lower.shape == upper.shape):
            raise ConfigError(
                f"BoundedArray field shapes differ: {value.shape}, "
                f"{lower.shape}, {upper.shape}"
            )
        if np.isnan(value).any() or np.isnan(lower).any() or np.isnan(upper).any():
            raise ConfigError("BoundedArray does not accept NaN endpoints")
        if not bool(np.all(lower <= upper)):
            raise ConfigError("BoundedArray ordering violated: lower > upper")
        # The point estimate may drift out of the bounds by a last-bit
        # rounding error when value and endpoints come from different
        # (equally valid) floating-point expressions; clamp it in, as
        # the scalar helpers do.  In-bounds elements are kept bit-for-bit
        # (np.minimum/np.maximum would rewrite -0.0 to +0.0 on ties,
        # flipping the atan2 branch the scalar path takes).
        value = np.where(value < lower, lower, np.where(value > upper, upper, value))
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    # ------------------------------------------------------------------
    @classmethod
    def from_halfwidth(cls, values: "npt.ArrayLike", halfwidth: float) -> "BoundedArray":
        """Symmetric intervals ``values +/- halfwidth`` (halfwidth >= 0)."""
        if halfwidth < 0:
            raise ConfigError(f"halfwidth must be >= 0, got {halfwidth}")
        values = _as_float_array(values)
        return cls(values, values - halfwidth, values + halfwidth)

    @classmethod
    def from_scalar(cls, scalar: BoundedValue, n: int) -> "BoundedArray":
        """``n`` copies of one scalar interval."""
        return cls(
            np.full(n, scalar.value),
            np.full(n, scalar.lower),
            np.full(n, scalar.upper),
        )

    def __len__(self) -> int:
        return len(self.value)

    def item(self, i: int) -> BoundedValue:
        """Element ``i`` as a scalar :class:`BoundedValue`."""
        return BoundedValue(
            float(self.value[i]), float(self.lower[i]), float(self.upper[i])
        )

    def split(self, parts: int) -> list["BoundedArray"]:
        """``parts`` equal consecutive pieces, in order (``np.split``)."""
        return [
            BoundedArray(value, lower, upper)
            for value, lower, upper in zip(
                np.split(self.value, parts),
                np.split(self.lower, parts),
                np.split(self.upper, parts),
            )
        ]

    # ------------------------------------------------------------------
    # Arithmetic (elementwise, conservative)
    # ------------------------------------------------------------------
    def __neg__(self) -> "BoundedArray":
        return BoundedArray(-self.value, -self.upper, -self.lower)

    def scale(self, factor: "float | npt.ArrayLike") -> "BoundedArray":
        """Multiply by an exact scalar or per-element array."""
        factor = np.asarray(factor, dtype=float)
        lo = self.lower * factor
        hi = self.upper * factor
        flip = factor < 0
        return BoundedArray(
            self.value * factor,
            np.where(flip, hi, lo),
            np.where(flip, lo, hi),
        )

    def shift(self, offset: "float | npt.ArrayLike") -> "BoundedArray":
        """Add an exact scalar or per-element array."""
        offset = np.asarray(offset, dtype=float)
        return BoundedArray(
            self.value + offset, self.lower + offset, self.upper + offset
        )

    def widen(self, margin: "float | npt.ArrayLike") -> "BoundedArray":
        """Grow both bounds outward by ``margin >= 0`` (scalar or array)."""
        margin = np.asarray(margin, dtype=float)
        if np.any(margin < 0):
            raise ConfigError("widen margin must be >= 0 everywhere")
        return BoundedArray(self.value, self.lower - margin, self.upper + margin)

    def clamp_nonnegative(self) -> "BoundedArray":
        """Clamp intervals (and estimates) to ``>= 0``."""
        return BoundedArray(
            np.maximum(self.value, 0.0),
            np.maximum(self.lower, 0.0),
            np.maximum(self.upper, 0.0),
        )

    def square(self) -> "BoundedArray":
        """Elementwise interval of ``x**2``."""
        lo_sq = self.lower * self.lower
        hi_sq = self.upper * self.upper
        straddles = (self.lower <= 0.0) & (self.upper >= 0.0)
        return BoundedArray(
            self.value * self.value,
            np.where(straddles, 0.0, np.minimum(lo_sq, hi_sq)),
            np.maximum(lo_sq, hi_sq),
        )

    def __add__(self, other: "BoundedArray | float | npt.ArrayLike") -> "BoundedArray":
        if isinstance(other, BoundedArray):
            return BoundedArray(
                self.value + other.value,
                self.lower + other.lower,
                self.upper + other.upper,
            )
        return self.shift(other)

    def sub_scalar(self, other: BoundedValue) -> "BoundedArray":
        """Elementwise ``self - other`` for one scalar interval."""
        return BoundedArray(
            self.value - other.value,
            self.lower - other.upper,
            self.upper - other.lower,
        )

    def div_scalar(self, other: BoundedValue) -> "BoundedArray":
        """Elementwise ``self / other`` for one scalar interval.

        Mirrors :meth:`BoundedValue.__truediv__`: multiply by the
        reciprocal interval, taking the endpoint-product hull.
        """
        if other.straddles_zero():
            raise ConfigError("interval division by an interval containing zero")
        reciprocals = (1.0 / other.lower, 1.0 / other.upper)
        r_lo, r_hi = min(reciprocals), max(reciprocals)
        products = np.stack(
            [
                self.lower * r_lo,
                self.lower * r_hi,
                self.upper * r_lo,
                self.upper * r_hi,
            ]
        )
        return BoundedArray(
            self.value * (1.0 / other.value),
            products.min(axis=0),
            products.max(axis=0),
        )


def hypot_array(x: BoundedArray, y: BoundedArray) -> BoundedArray:
    """Elementwise interval of ``sqrt(x^2 + y^2)`` over rectangles.

    The array form of :func:`hypot_interval` (same bound construction;
    the point estimate is clamped into the bounds the same way).
    """
    sq = x.square() + y.square()
    lower = np.sqrt(np.maximum(sq.lower, 0.0))
    upper = np.sqrt(np.maximum(sq.upper, 0.0))
    value = np.hypot(x.value, y.value)
    return BoundedArray(value, lower, upper)


def atan2_array(y: BoundedArray, x: BoundedArray) -> BoundedArray:
    """Elementwise angular range of rectangles: array :func:`atan2_interval`.

    Identical geometry to the scalar version: corner angles unwrapped
    around the centre angle (sound for convex regions avoiding the
    origin), the grazing-``pi`` ambiguity kept conservative, and the
    full circle returned for rectangles containing the origin.
    """
    centre = np.arctan2(y.value, x.value)
    corners_x = np.stack([x.lower, x.lower, x.upper, x.upper])
    corners_y = np.stack([y.lower, y.upper, y.lower, y.upper])
    rel = np.arctan2(corners_y, corners_x) - centre[None, :]
    rel = np.where(rel <= -math.pi, rel + TWO_PI, rel)
    rel = np.where(rel > math.pi, rel - TWO_PI, rel)
    # A box grazing the origin can subtend exactly pi; the unwrap
    # direction is then ambiguous — include both signs to stay
    # conservative (matches the scalar helper).
    grazing = np.abs(np.abs(rel) - math.pi) < 1e-9
    rel_min = np.minimum(
        rel.min(axis=0), np.where(grazing, -rel, np.inf).min(axis=0)
    )
    rel_max = np.maximum(
        rel.max(axis=0), np.where(grazing, -rel, -np.inf).max(axis=0)
    )
    lower = centre + rel_min
    upper = centre + rel_max
    unconstrained = (
        (x.lower <= 0.0) & (x.upper >= 0.0) & (y.lower <= 0.0) & (y.upper >= 0.0)
    )
    lower = np.where(unconstrained, centre - math.pi, np.minimum(lower, centre))
    upper = np.where(unconstrained, centre + math.pi, np.maximum(upper, centre))
    return BoundedArray(centre, lower, upper)
