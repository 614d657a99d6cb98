"""Analyzer configuration.

One :class:`AnalyzerConfig` fixes everything about the analyzer except
the master clock (the tuning knob) and the DUT: modulator references,
evaluation window sizes, settling policies, and which non-idealities are
simulated.  Two factory configurations cover the common cases:

* :meth:`AnalyzerConfig.ideal` — mathematically clean blocks; used to
  verify the architecture's exact properties (bounds, synchronization,
  calibration invariance);
* :meth:`AnalyzerConfig.typical` — 0.35 um-flavoured non-idealities
  (mismatch, finite gain, offsets, noise); used to reproduce the lab
  figures (SFDR/THD, Fig. 9 spread).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import ConfigError
from ..evaluator.dsp import PAPER_EPSILON
from ..evaluator.sigma_delta import PAPER_INTEGRATOR_GAIN
from ..sc.mismatch import MismatchModel
from ..sc.opamp import OpAmpModel
from ..units import DEFAULT_VREF


#: The real-valued fields of :class:`AnalyzerConfig`; each must be finite.
_FLOAT_FIELDS = (
    "vref",
    "sd_gain",
    "epsilon",
    "stimulus_amplitude",
    "dut_settle_tolerance",
    "evaluator_offset2",
    "image_budget_gain",
)


@dataclass(frozen=True)
class AnalyzerConfig:
    """Static configuration of the network analyzer.

    Parameters
    ----------
    vref:
        Sigma-delta reference voltage (volts); also the evaluator's
        full-scale.
    sd_gain:
        Modulator integrator gain ``CI/CF`` (paper: 0.4).
    epsilon:
        Signature error bound used by the DSP (counts; paper: 4).
    m_periods:
        Default evaluation window in signal periods (paper Fig. 10: 200).
    stimulus_amplitude:
        Default generated tone amplitude (volts).  Must stay within the
        evaluator's stable range including DUT gain peaking.
    generator_settle_periods:
        Output periods discarded for generator settling.
    dut_settle_tolerance:
        The DUT transient is allowed to decay to this relative level
        before signature integration starts.
    chopped:
        Offset-cancelling chopped counting (False only for ablation).
    harmonic_leakage_correction:
        Remove odd-harmonic square-wave leakage in multi-harmonic
        measurements.
    generator_opamp, evaluator_opamp:
        Amplifier models (None = ideal).
    mismatch:
        Capacitor mismatch model for the generator die (None = nominal).
    evaluator_offset2:
        Extra offset of the quadrature channel relative to
        ``evaluator_opamp`` — models the "matched" pair's residual
        mismatch.
    noise_seed:
        Seed of the analyzer's noise RNG; ``None`` disables noise even if
        the amplifier models carry noise figures.
    random_modulator_state:
        Start each measurement from a random (power-up) integrator state
        instead of zero; reproduces the run-to-run spread of Fig. 9.
    image_compensation:
        Apply the architecture-derived systematic corrections (exact
        calibration-path image-leakage division, ZOH half-sample phase,
        fundamental droop) and widen the guaranteed intervals by the
        residual image-leakage budget.  See
        :mod:`repro.core.compensation`.
    image_budget_gain:
        Assumed worst-case DUT gain at the stimulus image frequencies
        relative to its gain at the test tone, used for interval
        widening.  1.0 suits low-pass/flat DUTs; raise it for DUTs that
        amplify high frequencies relative to the test tone (e.g. a
        measurement deep in a notch).
    """

    vref: float = DEFAULT_VREF
    sd_gain: float = PAPER_INTEGRATOR_GAIN
    epsilon: float = PAPER_EPSILON
    m_periods: int = 200
    stimulus_amplitude: float = 0.3
    generator_settle_periods: int = 12
    dut_settle_tolerance: float = 1e-6
    chopped: bool = True
    harmonic_leakage_correction: bool = False
    generator_opamp: OpAmpModel | None = None
    evaluator_opamp: OpAmpModel | None = None
    mismatch: MismatchModel | None = None
    evaluator_offset2: float = 0.0
    noise_seed: int | None = None
    random_modulator_state: bool = False
    image_compensation: bool = True
    image_budget_gain: float = 1.0

    def __post_init__(self) -> None:
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if not self.vref > 0:
            raise ConfigError(f"vref must be positive, got {self.vref!r}")
        if not self.sd_gain > 0:
            raise ConfigError(f"sd_gain must be positive, got {self.sd_gain!r}")
        if self.epsilon < 0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon!r}")
        if self.m_periods < 1:
            raise ConfigError(f"m_periods must be >= 1, got {self.m_periods}")
        if self.chopped and self.m_periods % 2 != 0:
            raise ConfigError(
                f"chopped counting requires even m_periods, got {self.m_periods}"
            )
        if not self.stimulus_amplitude > 0:
            raise ConfigError(
                f"stimulus amplitude must be positive, got {self.stimulus_amplitude!r}"
            )
        if self.stimulus_amplitude > self.vref:
            raise ConfigError(
                f"stimulus amplitude {self.stimulus_amplitude} V exceeds the "
                f"evaluator stable range (vref = {self.vref} V)"
            )
        if self.generator_settle_periods < 0:
            raise ConfigError(
                f"generator_settle_periods must be >= 0, "
                f"got {self.generator_settle_periods}"
            )
        if not 0 < self.dut_settle_tolerance < 1:
            raise ConfigError(
                f"dut_settle_tolerance must be in (0, 1), "
                f"got {self.dut_settle_tolerance!r}"
            )
        if not self.image_budget_gain >= 0:
            raise ConfigError(
                f"image_budget_gain must be >= 0, got {self.image_budget_gain!r}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def ideal(cls, **overrides) -> "AnalyzerConfig":
        """Mathematically clean configuration."""
        return cls(**overrides)

    @classmethod
    def typical(cls, seed: int = 2008, **overrides) -> "AnalyzerConfig":
        """0.35 um-flavoured non-idealities (one simulated die).

        The seed selects the die (mismatch draw) and the noise stream.
        """
        defaults = dict(
            generator_opamp=OpAmpModel.folded_cascode_035um(offset=0.5e-3),
            evaluator_opamp=OpAmpModel.folded_cascode_035um(offset=1.0e-3),
            mismatch=MismatchModel(sigma_unit=0.001, seed=seed),
            evaluator_offset2=0.2e-3,
            noise_seed=seed,
            random_modulator_state=True,
        )
        defaults.update(overrides)
        return cls(**defaults)

    def with_m_periods(self, m_periods: int) -> "AnalyzerConfig":
        """A copy with a different evaluation window."""
        return replace(self, m_periods=m_periods)

    def with_amplitude(self, amplitude: float) -> "AnalyzerConfig":
        """A copy with a different stimulus amplitude."""
        return replace(self, stimulus_amplitude=amplitude)
