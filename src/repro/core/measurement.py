"""Measurement result containers.

All analyzer results carry :class:`~repro.intervals.BoundedValue` fields:
the point estimate plus the guaranteed interval of the paper's equations
(3)-(5) — the error bands of Fig. 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigError
from ..intervals import BoundedValue
from ..evaluator.signatures import SignaturePair


def ratio_db(x: float, floor_db: float = -200.0) -> float:
    """One amplitude ratio in decibels, clamped at ``floor_db``.

    Ratios at or below the floor (zero included: the bound "touches
    zero", the deep-stopband situation where the paper's error band
    blows up) map to ``floor_db`` itself.
    """
    if x <= 10.0 ** (floor_db / 20.0):
        return floor_db
    return 20.0 * math.log10(x)


def bounded_db(value: BoundedValue, floor_db: float = -200.0) -> BoundedValue:
    """Map an amplitude-ratio interval into decibels.

    ``20*log10`` is monotone, so the endpoints map directly through
    :func:`ratio_db`.
    """
    return BoundedValue(
        ratio_db(value.value, floor_db),
        ratio_db(value.lower, floor_db),
        ratio_db(value.upper, floor_db),
    )


@dataclass(frozen=True)
class StimulusMeasurement:
    """One evaluator acquisition of a tone (amplitude + phase + raw counts)."""

    fwave: float
    amplitude: BoundedValue
    phase: BoundedValue
    signature: SignaturePair

    def __post_init__(self) -> None:
        if not self.fwave > 0:
            raise ConfigError(f"fwave must be positive, got {self.fwave!r}")

    @property
    def amplitude_dbm_fs(self) -> float:
        """Paper Fig. 9 dB convention of the point estimate."""
        from ..units import dbm_fs

        return float(dbm_fs(self.amplitude.value, vref=self.signature.vref))


@dataclass(frozen=True)
class GainPhaseMeasurement:
    """One Bode point: DUT gain and phase with guaranteed bounds."""

    fwave: float
    gain: BoundedValue  # linear magnitude ratio
    phase_rad: BoundedValue  # radians, output phase minus input phase
    output: StimulusMeasurement
    reference: StimulusMeasurement

    def __post_init__(self) -> None:
        if not self.fwave > 0:
            raise ConfigError(f"fwave must be positive, got {self.fwave!r}")

    @property
    def gain_db(self) -> BoundedValue:
        """Gain in decibels (interval-mapped)."""
        return bounded_db(self.gain)

    @property
    def phase_deg(self) -> BoundedValue:
        """Phase in degrees (interval scaled; not wrapped, so bands stay
        contiguous across the -180 degree crossing).

        A single point's estimate still comes from an ``atan2`` centred
        in ``(-180, 180]``; a *sweep* of points therefore unwraps the
        trace as a whole (:meth:`repro.core.bode.BodeResult.phase_deg`),
        and phase-interval *comparisons* must be circle-aware
        (:func:`repro.intervals.angular_gap`).
        """
        factor = 180.0 / math.pi
        return self.phase_rad.scale(factor)


@dataclass(frozen=True)
class HarmonicDistortionMeasurement:
    """One harmonic's level relative to the fundamental."""

    harmonic: int
    amplitude: BoundedValue  # volts at the DUT output
    level_dbc: BoundedValue  # relative to the measured fundamental
    reference_dbc: float  # the oscilloscope (direct-FFT) reading

    def __post_init__(self) -> None:
        if self.harmonic < 2:
            raise ConfigError(
                f"distortion harmonics start at 2, got {self.harmonic}"
            )

    @property
    def agreement_db(self) -> float:
        """|analyzer - oscilloscope| for the point estimates."""
        return abs(self.level_dbc.value - self.reference_dbc)
