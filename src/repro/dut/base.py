"""DUT interface.

A DUT consumes a sampled waveform (the held generator output on the
master clock) and produces its response on the same clock.  It also
exposes its *analytic* frequency response, which the benches use as the
ground truth the analyzer's measurements are compared against — the role
the lab's reference instruments play in the paper.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from ..signals.waveform import Waveform

if TYPE_CHECKING:
    from .statespace import StateSpaceDUT


class DUT(abc.ABC):
    """Abstract device under test."""

    #: Human-readable name used in reports.
    name: str = "DUT"

    #: True for devices that respond to the *continuous-time* stimulus
    #: (real analog blocks): they see the held staircase, including its
    #: half-sample delay and images.  False for sample-domain routes
    #: (the calibration bypass), which see the exact sample values.
    responds_continuous: bool = True

    @abc.abstractmethod
    def process(self, waveform: Waveform) -> Waveform:
        """Respond to an input waveform (stateful; call :meth:`reset` first
        for an independent run)."""

    @abc.abstractmethod
    def frequency_response(self, frequencies) -> np.ndarray:
        """Analytic complex response at the given frequencies (hertz)."""

    def reset(self) -> None:
        """Return internal state to power-up (default: stateless)."""

    def settling_time(self, tolerance: float = 1e-6) -> float:
        """Transient decay time the analyzer must wait out (seconds).

        Stateless devices return 0; dynamic devices override.
        """
        return 0.0

    def batch_response(self, samples: np.ndarray, sample_rate: float) -> np.ndarray:
        """Zero-state response samples for one batch-engine measurement.

        The population backend measures many devices against one shared
        stimulus and only needs the output *samples* — not the final
        device state the stateful :meth:`process` contract maintains.
        The default resets and delegates to :meth:`process`, which any
        DUT supports.  Devices with a :meth:`state_space` model never
        reach it on the population path: the backend filters them with
        coefficients from the stacked kernel instead.
        """
        self.reset()
        return self.process(Waveform(samples, sample_rate)).samples

    def state_space(self) -> "StateSpaceDUT | None":
        """The exact LTI model behind this device, or None (default).

        A device that returns a model promises that its :meth:`process`
        from reset and its :meth:`frequency_response` are the model's
        own; the population backend then evaluates whole slots of such
        devices through the stacked kernel of
        :mod:`repro.dut.statespace` instead of one method call per
        device.
        """
        return None

    # ------------------------------------------------------------------
    # Convenience ground-truth accessors
    # ------------------------------------------------------------------
    def gain_at(self, frequency: float) -> float:
        """Magnitude response at one frequency."""
        return float(np.abs(self.frequency_response([frequency])[0]))

    def gain_db_at(self, frequency: float) -> float:
        """Magnitude response in dB at one frequency."""
        gain = self.gain_at(frequency)
        return float(20.0 * np.log10(gain)) if gain > 0 else float("-inf")

    def phase_at(self, frequency: float) -> float:
        """Phase response in radians at one frequency."""
        return float(np.angle(self.frequency_response([frequency])[0]))

    def phase_deg_at(self, frequency: float) -> float:
        """Phase response in degrees at one frequency."""
        return float(np.degrees(self.phase_at(frequency)))


class PassthroughDUT(DUT):
    """The calibration bypass: output equals input.

    Used when the board routes the generator straight to the evaluator
    (the dashed calibration path of the paper's Fig. 1).
    """

    name = "passthrough"
    responds_continuous = False

    def process(self, waveform: Waveform) -> Waveform:
        return waveform

    def frequency_response(self, frequencies) -> np.ndarray:
        frequencies = np.atleast_1d(np.asarray(frequencies, dtype=float))
        return np.ones(len(frequencies), dtype=complex)
