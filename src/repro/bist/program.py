"""Go/no-go BIST programs.

A :class:`BISTProgram` runs the analyzer over a set of test frequencies
and compares the *bounded* gain measurements against a
:class:`~repro.bist.limits.SpecMask`.  Because measurements are
intervals, three outcomes exist per point:

* **pass** — the whole interval lies inside the limits;
* **fail** — the whole interval lies outside;
* **ambiguous** — the interval straddles a limit: the test is not
  conclusive at this window size (increase ``M``, exactly the knob the
  paper highlights).

The device verdict is fail if any point fails; ambiguous if no point
fails but some are inconclusive; pass otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..core.analyzer import NetworkAnalyzer
from ..core.measurement import ratio_db
from ..errors import ConfigError
from ..intervals import BoundedArray
from .limits import SpecMask


@dataclass(frozen=True)
class PointVerdict:
    """Verdict at one test frequency."""

    frequency: float
    gain_db_lower: float
    gain_db_upper: float
    limit_lo_db: float
    limit_hi_db: float
    verdict: str  # "pass" | "fail" | "ambiguous"


def interval_verdict(
    lower_db: float, upper_db: float, lo: float, hi: float
) -> str:
    """The tri-state rule: a gain interval ``[lower_db, upper_db]``
    against the limits ``[lo, hi]``.

    The verdict is conclusive only when the *whole* interval clears (or
    violates) the limits.
    """
    if lower_db >= lo and upper_db <= hi:
        return "pass"
    if upper_db < lo or lower_db > hi:
        return "fail"
    return "ambiguous"


def device_verdict(verdicts: Iterable[str]) -> str:
    """A device's verdict from its points': any fail fails the device,
    else any ambiguous point makes it ambiguous, else it passes."""
    verdicts = set(verdicts)
    if "fail" in verdicts:
        return "fail"
    if "ambiguous" in verdicts:
        return "ambiguous"
    return "pass"


def point_verdict(
    frequency: float, gain_db, lo: float, hi: float
) -> PointVerdict:
    """Tri-state comparison of one bounded gain against its limits.

    ``gain_db`` is a :class:`~repro.intervals.BoundedValue`, judged by
    :func:`interval_verdict`.
    """
    return PointVerdict(
        frequency=frequency,
        gain_db_lower=gain_db.lower,
        gain_db_upper=gain_db.upper,
        limit_lo_db=lo,
        limit_hi_db=hi,
        verdict=interval_verdict(gain_db.lower, gain_db.upper, lo, hi),
    )


#: Verdicts by severity: a device takes its worst point's.
_SEVERITY = ("pass", "ambiguous", "fail")
#: Ratios :func:`~repro.core.measurement.ratio_db` clamps to its floor.
_FLOOR_DB = -200.0
_FLOOR_RATIO = 10.0 ** (_FLOOR_DB / 20.0)
#: Relative distance from a limit within which an ``np.log10`` guess of
#: an endpoint is re-decided with the scalar ``ratio_db``: ``2**-40``,
#: thousands of ulps beyond the few that ``np.log10`` and ``math.log10``
#: each lie from the exact logarithm.
_GUESS_MARGIN = 2.0**-40


def lot_verdicts(
    gains: Iterable[BoundedArray], limits: Iterable[tuple[float, float]]
) -> list[str]:
    """Each device's verdict from per-frequency gain-ratio arrays.

    ``gains`` holds one :class:`~repro.intervals.BoundedArray` per test
    frequency (element ``i`` is device ``i``'s linear gain) and
    ``limits`` the matching ``(lo, hi)`` dB limits.  Each verdict is the
    one :func:`point_verdict` and :attr:`BISTReport.verdict` give for
    the boxed measurements, without building them: the rules above run
    on arrays of endpoints in dB (:func:`_endpoints_db`), whose every
    comparison with a limit is the one
    :func:`~repro.core.measurement.ratio_db`'s Python float makes.
    """
    worst = None
    for gain, (lo, hi) in zip(gains, limits):
        lower = _endpoints_db(gain.lower, lo, hi)
        upper = _endpoints_db(gain.upper, lo, hi)
        severity = np.where((lower >= lo) & (upper <= hi), 0, 1)
        severity[(upper < lo) | (lower > hi)] = 2
        worst = severity if worst is None else np.maximum(worst, severity)
    if worst is None:
        return []
    return [_SEVERITY[s] for s in worst.tolist()]


def _endpoints_db(ratios: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``ratio_db`` of each endpoint, as far as comparisons with ``lo``
    and ``hi`` can tell: guessed with ``np.log10``, and recomputed with
    the scalar ``ratio_db`` wherever the guess is not finite or lies
    within ``_GUESS_MARGIN`` (relative) of a limit.  Elsewhere the guess
    and the scalar value differ by a few ulps, far less than their
    distance to either limit, so they fall on the same side of both.
    """
    ratios = np.asarray(ratios, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        db = 20.0 * np.log10(ratios)
    db[ratios <= _FLOOR_RATIO] = _FLOOR_DB
    near = ~np.isfinite(db)
    for limit in (lo, hi):
        if not math.isfinite(limit):  # every finite guess compares exactly
            continue
        near |= np.abs(db - limit) <= _GUESS_MARGIN * np.maximum(
            np.abs(db), abs(limit)
        )
    for i in np.flatnonzero(near).tolist():
        db[i] = ratio_db(float(ratios[i]), _FLOOR_DB)
    return db


@dataclass(frozen=True)
class BISTReport:
    """Outcome of one full BIST program execution."""

    points: tuple[PointVerdict, ...]

    @property
    def verdict(self) -> str:
        return device_verdict(p.verdict for p in self.points)

    @property
    def failed_points(self) -> tuple[PointVerdict, ...]:
        return tuple(p for p in self.points if p.verdict == "fail")


class BISTProgram:
    """A production-style go/no-go test program.

    Parameters
    ----------
    mask:
        Specification limits.
    frequencies:
        Test frequencies (each must be covered by the mask).
    m_periods:
        Evaluation window per point (smaller = faster test, wider
        intervals, more ambiguous outcomes — the test-time/accuracy
        trade-off of the paper's Section IV.B).
    """

    def __init__(self, mask: SpecMask, frequencies, m_periods: int = 50) -> None:
        self.mask = mask
        self.frequencies = [float(f) for f in frequencies]
        if not self.frequencies:
            raise ConfigError("need at least one test frequency")
        for f in self.frequencies:
            if mask.limits_at(f) is None:
                raise ConfigError(
                    f"test frequency {f:g} Hz is not covered by the mask"
                )
        if m_periods < 2:
            raise ConfigError(f"m_periods must be >= 2, got {m_periods}")
        self.m_periods = m_periods

    def run(self, analyzer: NetworkAnalyzer) -> BISTReport:
        """Execute the program on an analyzer (calibrating if needed)."""
        if analyzer.calibration is None:
            analyzer.calibrate(self.frequencies[0], m_periods=self.m_periods)
        points = []
        for f in self.frequencies:
            measurement = analyzer.measure_gain_phase(f, m_periods=self.m_periods)
            lo, hi = self.mask.limits_at(f)
            points.append(point_verdict(f, measurement.gain_db, lo, hi))
        return BISTReport(points=tuple(points))
