"""The network analyzer: generator -> DUT -> evaluator, plus calibration.

Orchestrates a complete measurement exactly the way the paper's system
operates (Fig. 1):

1. the master clock is set for the requested tone frequency
   (``feva = 96 fwave``);
2. the sinewave generator synthesizes the stimulus; its held output
   drives either the DUT or, on the calibration path, the evaluator
   directly;
3. the evaluator modulates, encodes and counts over ``M`` periods, after
   discarding the generator settling and the DUT's own transient
   (an integer number of periods, to preserve the phase reference);
4. the signature DSP converts counts into bounded amplitude/phase, and
   the calibration arithmetic of Section III.C converts stimulus/response
   pairs into bounded DUT gain and phase.

One analyzer instance simulates one physical board: the same generator
die (mismatch draw) and amplifier population is reused at every sweep
point, which is what makes the one-off calibration meaningful.
"""

from __future__ import annotations

import math

import numpy as np

from ..clocking.master import ClockTree
from ..dut.base import DUT, PassthroughDUT
from ..errors import CalibrationError, ConfigError
from ..evaluator.dsp import SignatureDSP
from ..evaluator.evaluator import SinewaveEvaluator
from ..evaluator.harmonics import (
    HarmonicMeasurement,
    measure_harmonics as _measure_harmonics_impl,
)
from ..generator.sinewave_generator import SinewaveGenerator
from ..sc.mismatch import MismatchModel
from ..sc.opamp import OpAmpModel
from ..signals.waveform import Waveform
from .calibration import CalibrationResult
from .config import AnalyzerConfig
from .measurement import GainPhaseMeasurement, StimulusMeasurement


def build_evaluator(
    config: AnalyzerConfig, rng: np.random.Generator | None
) -> SinewaveEvaluator:
    """The analyzer's evaluator wiring for a configuration.

    The single source of truth for how an :class:`AnalyzerConfig` maps
    onto a :class:`~repro.evaluator.evaluator.SinewaveEvaluator`
    (including the quadrature channel's residual offset).  Shared by
    :class:`NetworkAnalyzer` and the vectorized population backend
    (:mod:`repro.engine.vectorized`), whose exact-equivalence contract
    depends on both paths building identical evaluators.
    """
    opamp1 = config.evaluator_opamp
    if config.evaluator_offset2 != 0.0:
        import dataclasses

        base = opamp1 if opamp1 is not None else OpAmpModel.ideal()
        opamp2 = dataclasses.replace(
            base, offset=base.offset + config.evaluator_offset2
        )
    else:
        opamp2 = opamp1
    return SinewaveEvaluator(
        vref=config.vref,
        gain=config.sd_gain,
        opamp1=opamp1,
        opamp2=opamp2,
        rng=rng,
        chopped=config.chopped,
    )


class NetworkAnalyzer:
    """On-chip network analyzer bound to one DUT.

    Parameters
    ----------
    dut:
        The device under test.
    config:
        Static analyzer configuration (defaults to the ideal setup).
    """

    def __init__(self, dut: DUT, config: AnalyzerConfig | None = None) -> None:
        self.dut = dut
        self.config = config if config is not None else AnalyzerConfig.ideal()
        self._rng = (
            np.random.default_rng(self.config.noise_seed)
            if self.config.noise_seed is not None
            else None
        )
        self._dsp = SignatureDSP(self.config.epsilon)
        self._calibration: CalibrationResult | None = None

    # ------------------------------------------------------------------
    # Block construction
    # ------------------------------------------------------------------
    def _fresh_mismatch(self) -> MismatchModel | None:
        """Same die at every sweep point: re-seeded model per build."""
        template = self.config.mismatch
        if template is None:
            return None
        return MismatchModel(sigma_unit=template.sigma_unit, seed=template.seed)

    def _build_generator(self, clock: ClockTree) -> SinewaveGenerator:
        cfg = self.config
        generator = SinewaveGenerator(
            clock,
            opamp1=cfg.generator_opamp,
            opamp2=cfg.generator_opamp,
            mismatch=self._fresh_mismatch(),
            rng=self._rng,
        )
        generator.set_amplitude(cfg.stimulus_amplitude)
        return generator

    def _build_evaluator(self) -> SinewaveEvaluator:
        return build_evaluator(self.config, self._rng)

    def _initial_states(self, evaluator: SinewaveEvaluator) -> tuple[float, float]:
        if not self.config.random_modulator_state or self._rng is None:
            return (0.0, 0.0)
        bound = 0.5 * evaluator.channel1.state_bound
        return (
            float(self._rng.uniform(-bound, bound)),
            float(self._rng.uniform(-bound, bound)),
        )

    def _dut_settle_periods(self, dut: DUT, fwave: float) -> int:
        settle = getattr(dut, "settling_time", None)
        if settle is None:
            return 0
        seconds = settle(self.config.dut_settle_tolerance)
        return int(math.ceil(seconds * fwave))

    # ------------------------------------------------------------------
    # Single-tone acquisition
    # ------------------------------------------------------------------
    def measure_stimulus(
        self,
        fwave: float,
        through_dut: bool = True,
        m_periods: int | None = None,
        harmonic: int = 1,
    ) -> StimulusMeasurement:
        """Acquire amplitude and phase of one tone path.

        ``through_dut=False`` selects the calibration bypass.
        """
        m = m_periods if m_periods is not None else self.config.m_periods
        clock = ClockTree.from_fwave(fwave)
        route: DUT = self.dut if through_dut else PassthroughDUT()
        signal = self._acquire_response(clock, route, m)
        evaluator = self._build_evaluator()
        u0 = self._initial_states(evaluator)
        signature = evaluator.measure(signal, harmonic=harmonic, m_periods=m, u0=u0)
        estimate = self._dsp.components(signature)
        amplitude = estimate.amplitude
        phase = estimate.phase
        if self.config.image_compensation and harmonic >= 1:
            amplitude, phase = self._compensate(
                amplitude, phase, harmonic, clock, route
            )
        return StimulusMeasurement(
            fwave=fwave,
            amplitude=amplitude,
            phase=phase,
            signature=signature,
        )

    def _compensate(self, amplitude, phase, harmonic, clock: ClockTree, route: DUT):
        """Architecture-derived systematic corrections + honest widening.

        See :mod:`repro.core.compensation`.  Sample-domain routes (the
        calibration bypass) get the exact self-leakage division; analog
        routes get the ZOH delay/droop correction plus interval widening
        for the unknowable image transmission through the DUT.
        """
        from . import compensation

        n = clock.oversampling_ratio
        budget = compensation.leakage_budget(harmonic, n)
        if route.responds_continuous:
            if harmonic == 1:
                amplitude = amplitude.scale(
                    1.0 / compensation.zoh_fundamental_droop(n)
                )
            phase = phase.shift(harmonic * compensation.zoh_phase_offset(n))
            widen_amp = (
                budget
                * self.config.image_budget_gain
                * self.config.stimulus_amplitude
            )
            residual_fraction = 1.0
        else:
            if harmonic == 1:
                factor = compensation.bypass_response(
                    1, self.config_generator_caps()
                )
                amplitude = amplitude.scale(1.0 / abs(factor))
                phase = phase.shift(-math.atan2(factor.imag, factor.real))
            # For k >= 2 the bypass reading is pure, *known* leakage;
            # subtracting it needs the fundamental phasor, so it is done
            # by callers holding a calibration (see
            # repro.core.dynamic_range.system_dynamic_range).  The exact
            # k = 1 division removes the nominal leakage; mismatch and
            # amplifier errors perturb it by a small fraction.
            widen_amp = 0.1 * budget * self.config.stimulus_amplitude
        amplitude = amplitude.widen(widen_amp).clamp_nonnegative()
        reference = max(amplitude.value, widen_amp, 1e-15)
        phase = phase.widen(min(widen_amp / reference, math.pi))
        return amplitude, phase

    def config_generator_caps(self):
        """Nominal generator capacitors (for design-constant lookups)."""
        from ..generator.design import PAPER_CAPACITORS

        return PAPER_CAPACITORS

    def _acquire_response(self, clock: ClockTree, route: DUT, m_periods: int) -> Waveform:
        """Generate the stimulus and run it through a signal route."""
        lead = self._dut_settle_periods(route, clock.fwave)
        generator = self._build_generator(clock)
        held = generator.render_held(
            n_periods=lead + m_periods,
            settle_periods=self.config.generator_settle_periods,
        )
        route.reset()
        response = route.process(held)
        return response.slice_samples(lead * clock.oversampling_ratio)

    def acquire_response(
        self, fwave: float, m_periods: int | None = None, through_dut: bool = True
    ) -> Waveform:
        """The raw steady-state waveform the evaluator would see.

        Exposed for reference instrumentation (the oscilloscope stand-in
        of Fig. 10c computes its FFT from exactly this signal).
        """
        m = m_periods if m_periods is not None else self.config.m_periods
        clock = ClockTree.from_fwave(fwave)
        route: DUT = self.dut if through_dut else PassthroughDUT()
        return self._acquire_response(clock, route, m)

    # ------------------------------------------------------------------
    # Calibration (Section III.C)
    # ------------------------------------------------------------------
    def calibrate(
        self, fwave: float, m_periods: int | None = None
    ) -> CalibrationResult:
        """Characterize the test input on the bypass path (done once)."""
        measurement = self.measure_stimulus(
            fwave, through_dut=False, m_periods=m_periods
        )
        calibration = CalibrationResult.from_measurement(
            measurement, self.config.stimulus_amplitude
        )
        self._calibration = calibration
        return calibration

    @property
    def calibration(self) -> CalibrationResult | None:
        """The stored calibration, if any."""
        return self._calibration

    def use_calibration(self, calibration: CalibrationResult) -> None:
        """Adopt a calibration acquired elsewhere (e.g. the engine cache).

        The paper's calibration characterizes the *test input*, which
        depends only on the analyzer configuration — never on the DUT —
        so a calibration acquired by one analyzer instance is valid for
        any other instance with an equal config.
        """
        if not isinstance(calibration, CalibrationResult):
            raise ConfigError(
                f"expected a CalibrationResult, got {type(calibration).__name__}"
            )
        self._calibration = calibration

    # ------------------------------------------------------------------
    # Gain/phase measurement
    # ------------------------------------------------------------------
    def measure_gain_phase(
        self,
        fwave: float,
        m_periods: int | None = None,
        calibration: CalibrationResult | None = None,
    ) -> GainPhaseMeasurement:
        """One Bode point: bounded DUT gain and phase at ``fwave``."""
        cal = calibration if calibration is not None else self._calibration
        if cal is None:
            raise CalibrationError(
                "no calibration available; run calibrate() first (the paper's "
                "one-off bypass measurement)"
            )
        cal.check_amplitude_setting(self.config.stimulus_amplitude)
        output = self.measure_stimulus(fwave, through_dut=True, m_periods=m_periods)
        gain = (output.amplitude / cal.amplitude).clamp_nonnegative()
        phase = output.phase - cal.phase
        return GainPhaseMeasurement(
            fwave=fwave,
            gain=gain,
            phase_rad=phase,
            output=output,
            reference=StimulusMeasurement(
                fwave=fwave,
                amplitude=cal.amplitude,
                phase=cal.phase,
                signature=output.signature,
            ),
        )

    def bode(
        self,
        frequencies,
        m_periods: int | None = None,
        calibration: CalibrationResult | None = None,
    ) -> list[GainPhaseMeasurement]:
        """Sweep the master clock over a list of tone frequencies.

        Runs on a default (serial, reference-backend) session
        (:meth:`repro.api.session.Session.sweep`): each sweep point is
        an independent job with its own derived noise substream, results
        returned in the requested frequency order.  For another backend
        or worker count, build the session yourself::

            from repro.api import ExecutionPolicy, Session

            Session(dut, config, ExecutionPolicy(n_workers=4)).bode([...])
        """
        from ..api.session import Session

        frequencies = list(frequencies)
        if not frequencies:
            raise ConfigError("frequency list is empty")
        cal = calibration if calibration is not None else self._calibration
        if cal is None:
            raise CalibrationError(
                "no calibration available; run calibrate() first (the paper's "
                "one-off bypass measurement)"
            )
        return Session(self.dut, self.config).sweep(
            frequencies, m_periods=m_periods, calibration=cal
        ).raw

    # ------------------------------------------------------------------
    # DC level (the evaluator's k = 0 mode: DUT offset testing)
    # ------------------------------------------------------------------
    def measure_dc_level(
        self,
        fwave: float,
        m_periods: int | None = None,
        through_dut: bool = True,
    ):
        """Bounded DC level of the DUT response (paper eq. (3)).

        The stimulus tone integrates to zero over the window; what
        remains is the DUT's output offset — a standard BIST screen for
        analog blocks.  The evaluator's own offset is cancelled by the
        chopped counting, so this genuinely measures the DUT.
        """
        m = m_periods if m_periods is not None else self.config.m_periods
        clock = ClockTree.from_fwave(fwave)
        route: DUT = self.dut if through_dut else PassthroughDUT()
        signal = self._acquire_response(clock, route, m)
        evaluator = self._build_evaluator()
        u0 = self._initial_states(evaluator)
        signature = evaluator.measure_dc(signal, m_periods=m, u0=u0)
        return self._dsp.dc_level(signature)

    # ------------------------------------------------------------------
    # Harmonic distortion (Section IV.C / Fig. 10c)
    # ------------------------------------------------------------------
    def measure_harmonics(
        self,
        fwave: float,
        harmonics: list[int],
        m_periods: int | None = None,
        correct_leakage: bool | None = None,
    ) -> dict[int, HarmonicMeasurement]:
        """Measure several harmonics of the DUT response to one stimulus."""
        m = m_periods if m_periods is not None else self.config.m_periods
        clock = ClockTree.from_fwave(fwave)
        signal = self._acquire_response(clock, self.dut, m)
        evaluator = self._build_evaluator()
        u0 = self._initial_states(evaluator)
        correct = (
            correct_leakage
            if correct_leakage is not None
            else self.config.harmonic_leakage_correction
        )
        return _measure_harmonics_impl(
            evaluator,
            signal,
            harmonics,
            m,
            dsp=self._dsp,
            u0=u0,
            correct_leakage=correct,
        )
