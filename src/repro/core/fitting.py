"""Model-parameter extraction from Bode measurements.

Datasheets specify filters by corner frequency, quality factor and DC
gain — not by pointwise gains.  This module fits a second-order low-pass
model

    ``|H(f)| = g0 / sqrt((1 - (f/f0)^2)^2 + (f/(Q f0))^2)``

to a measured :class:`~repro.core.bode.BodeResult` by weighted least
squares in log-magnitude, weighting each point by the inverse of its
error-band width so the analyzer's own confidence shapes the fit.  The
extracted parameters feed parameter-based screening
(:func:`parameter_screen`), the natural refinement of the pointwise
go/no-go program in :mod:`repro.bist`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.bode import BodeResult
from ..errors import ConfigError, EvaluationError


@dataclass(frozen=True)
class SecondOrderFit:
    """Extracted second-order low-pass parameters."""

    f0: float  # corner frequency, Hz
    q: float  # quality factor
    gain: float  # DC gain magnitude
    residual_db_rms: float  # RMS log-magnitude misfit over used points
    n_points: int

    @property
    def gain_db(self) -> float:
        if self.gain <= 0:
            return float("-inf")
        return 20.0 * math.log10(self.gain)


def _model_mag_db(params, freqs):
    log_f0, log_q, log_g = params
    f0 = np.exp(log_f0)
    q = np.exp(log_q)
    g = np.exp(log_g)
    x = freqs / f0
    mag = g / np.sqrt((1.0 - x * x) ** 2 + (x / q) ** 2)
    return 20.0 * np.log10(np.maximum(mag, 1e-300))


def fit_second_order_lowpass(
    bode: BodeResult,
    min_gain_db: float = -60.0,
) -> SecondOrderFit:
    """Fit a 2nd-order low-pass to a Bode measurement.

    Points whose measured gain is below ``min_gain_db`` (deep stopband,
    where the bounded measurement degenerates) are excluded; at least
    four usable points are required for the three parameters.
    """
    freqs = bode.frequencies()
    gains_db = bode.gain_db()
    lo, hi = bode.gain_db_bounds()
    widths = np.maximum(hi - lo, 1e-3)
    usable = gains_db > min_gain_db
    if int(np.count_nonzero(usable)) < 4:
        raise EvaluationError(
            f"only {int(np.count_nonzero(usable))} usable Bode points above "
            f"{min_gain_db} dB; need at least 4 to fit f0/Q/gain"
        )
    f_used = freqs[usable]
    g_used = gains_db[usable]
    w_used = 1.0 / widths[usable]

    # Initial guess: DC gain from the lowest frequency; f0 where the
    # response drops 3 dB below it; Q from Butterworth.
    g0_db = g_used[0]
    below = f_used[g_used <= g0_db - 3.0]
    f0_guess = float(below[0]) if len(below) else float(f_used[-1])
    x0 = np.array(
        [math.log(f0_guess), math.log(1.0 / math.sqrt(2.0)), g0_db / 20.0 * math.log(10.0)]
    )

    def residuals(params):
        return (_model_mag_db(params, f_used) - g_used) * w_used

    from scipy.optimize import least_squares  # ~45 MB; only fits need it

    result = least_squares(residuals, x0, method="lm", max_nfev=2000)
    if not result.success:
        raise EvaluationError(f"second-order fit failed: {result.message}")
    f0 = float(np.exp(result.x[0]))
    q = float(np.exp(result.x[1]))
    gain = float(np.exp(result.x[2]))
    misfit = _model_mag_db(result.x, f_used) - g_used
    return SecondOrderFit(
        f0=f0,
        q=q,
        gain=gain,
        residual_db_rms=float(np.sqrt(np.mean(misfit**2))),
        n_points=int(len(f_used)),
    )


@dataclass(frozen=True)
class ParameterScreen:
    """Pass/fail on extracted parameters."""

    fit: SecondOrderFit
    f0_limits: tuple[float, float]
    q_limits: tuple[float, float]
    gain_db_limits: tuple[float, float]

    @property
    def f0_ok(self) -> bool:
        return self.f0_limits[0] <= self.fit.f0 <= self.f0_limits[1]

    @property
    def q_ok(self) -> bool:
        return self.q_limits[0] <= self.fit.q <= self.q_limits[1]

    @property
    def gain_ok(self) -> bool:
        return self.gain_db_limits[0] <= self.fit.gain_db <= self.gain_db_limits[1]

    @property
    def passed(self) -> bool:
        return self.f0_ok and self.q_ok and self.gain_ok


def parameter_screen(
    bode: BodeResult,
    f0_limits: tuple[float, float],
    q_limits: tuple[float, float],
    gain_db_limits: tuple[float, float],
) -> ParameterScreen:
    """Screen a device on its extracted f0/Q/gain."""
    for name, limits in (
        ("f0", f0_limits),
        ("q", q_limits),
        ("gain_db", gain_db_limits),
    ):
        if limits[0] > limits[1]:
            raise ConfigError(f"{name} limits inverted: {limits}")
    fit = fit_second_order_lowpass(bode)
    return ParameterScreen(
        fit=fit,
        f0_limits=f0_limits,
        q_limits=q_limits,
        gain_db_limits=gain_db_limits,
    )
