"""One go/no-go rule, two shapes: boxed measurements and gain arrays.

A yield lot on the vectorized backend never builds per-device
measurement objects: :func:`repro.bist.program.lot_verdicts` reads the
gain-ratio arrays as Python floats.  The property under test is that it
gives exactly the verdict the boxed path gives —
:func:`~repro.core.measurement.bounded_db`, then
:func:`~repro.bist.program.point_verdict` per frequency, then
:attr:`~repro.bist.program.BISTReport.verdict` — for any intervals,
including gains clamped at the dB floor, dB endpoints that equal a
limit exactly, and intervals that straddle a limit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bist.program import (
    BISTReport,
    device_verdict,
    interval_verdict,
    lot_verdicts,
    point_verdict,
)
from repro.core.measurement import bounded_db, ratio_db
from repro.intervals import BoundedArray, BoundedValue

FLOOR_RATIO = 10.0 ** (-200.0 / 20.0)

#: Gain ratios: a wide continuous range plus the floor's edges (zero,
#: the floor ratio itself and a ratio just below it).
RATIOS = st.one_of(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.sampled_from([0.0, FLOOR_RATIO, 0.5 * FLOOR_RATIO, 1.0]),
)
LIMITS_DB = st.floats(min_value=-250.0, max_value=30.0, allow_nan=False)


def boxed_verdicts(frequencies, gains, limits):
    """The per-device verdicts of the boxed path."""
    return [
        BISTReport(
            points=tuple(
                point_verdict(f, bounded_db(gain.item(i)), lo, hi)
                for f, gain, (lo, hi) in zip(frequencies, gains, limits)
            )
        ).verdict
        for i in range(len(gains[0]))
    ]


@st.composite
def lots(draw):
    """Per-frequency gain arrays and limits; each limit is either free
    or equal to the dB image of one of that frequency's endpoints."""
    n_devices = draw(st.integers(min_value=1, max_value=6))
    n_frequencies = draw(st.integers(min_value=1, max_value=4))
    gains, limits = [], []
    for _ in range(n_frequencies):
        pairs = [
            sorted(draw(st.tuples(RATIOS, RATIOS))) for _ in range(n_devices)
        ]
        lower = np.array([p[0] for p in pairs])
        upper = np.array([p[1] for p in pairs])
        gains.append(BoundedArray(0.5 * (lower + upper), lower, upper))
        edges = [ratio_db(x) for pair in pairs for x in pair]
        limit = st.one_of(LIMITS_DB, st.sampled_from(edges))
        lo, hi = sorted((draw(limit), draw(limit)))
        limits.append((lo, hi))
    frequencies = [1000.0 * (k + 1) for k in range(n_frequencies)]
    return frequencies, gains, limits


@settings(max_examples=300, deadline=None)
@given(lots())
def test_lot_verdicts_match_the_boxed_rule(lot):
    frequencies, gains, limits = lot
    assert lot_verdicts(gains, limits) == boxed_verdicts(
        frequencies, gains, limits
    )


def test_floor_clamped_lower_bound():
    """A lower bound at or below the floor clamps to -200 dB on both
    paths, so a limit below the floor still passes it."""
    for lower in (0.0, 0.5 * FLOOR_RATIO, FLOOR_RATIO):
        assert ratio_db(lower) == -200.0
        gain = BoundedArray(np.array([0.5]), np.array([lower]), np.array([1.0]))
        for limits in ([(-200.0, 0.0)], [(-210.0, 0.0)], [(-199.0, 0.0)]):
            assert lot_verdicts([gain], limits) == boxed_verdicts(
                [1000.0], [gain], limits
            )
        assert lot_verdicts([gain], [(-200.0, 0.0)]) == ["pass"]
        assert lot_verdicts([gain], [(-199.0, 0.0)]) == ["ambiguous"]


def test_endpoints_on_the_limits_pass():
    gain = BoundedArray(np.array([0.7]), np.array([0.5]), np.array([0.9]))
    limits = [(ratio_db(0.5), ratio_db(0.9))]
    assert lot_verdicts([gain], limits) == ["pass"]
    assert boxed_verdicts([1000.0], [gain], limits) == ["pass"]


def test_straddling_intervals_are_ambiguous_and_fails_dominate():
    straddle = BoundedArray(np.array([1.0]), np.array([0.5]), np.array([2.0]))
    below = BoundedArray(np.array([0.1]), np.array([0.05]), np.array([0.2]))
    limits = [(ratio_db(0.8), ratio_db(1.2))]
    assert lot_verdicts([straddle], limits) == ["ambiguous"]
    assert lot_verdicts([straddle, below], limits * 2) == ["fail"]
    assert boxed_verdicts([1.0, 2.0], [straddle, below], limits * 2) == ["fail"]


def test_single_rule_functions():
    assert interval_verdict(-1.0, 1.0, -1.0, 1.0) == "pass"
    assert interval_verdict(-3.0, -2.0, -1.0, 1.0) == "fail"
    assert interval_verdict(-2.0, 0.0, -1.0, 1.0) == "ambiguous"
    assert device_verdict([]) == "pass"
    assert device_verdict(["pass", "ambiguous"]) == "ambiguous"
    assert device_verdict(["ambiguous", "fail", "pass"]) == "fail"
    assert bounded_db(BoundedValue.exact(10.0)).value == ratio_db(10.0) == 20.0
