"""The dual-channel sinewave evaluator (paper Fig. 4a).

Wires together the modulation sequencing, the matched pair of sigma-delta
modulators, and the chopped signature counters.  One call to
:meth:`SinewaveEvaluator.measure` performs the complete acquisition of one
harmonic: modulate the signal with the in-phase and quadrature square
waves, encode both products, count both bitstreams over ``M`` periods,
and return the raw :class:`~repro.evaluator.signatures.SignaturePair`.

Phase conventions (verified by tests): for an input
``x[n] = A sin(2 pi k n / N + phi)``,

* ``I1k ~= (MN) (2/pi) (A/Vref) cos(phi)``
* ``I2k ~= -(MN) (2/pi) (A/Vref) sin(phi)``

so amplitude and phase recover as ``A = (pi/2)(Vref/MN) hypot(I1, I2)``
and ``phi = atan2(-I2, I1)``; the arithmetic lives in
:class:`~repro.evaluator.dsp.SignatureDSP`.
"""

from __future__ import annotations

import numpy as np

from ..clocking.sequencer import ModulationSequence
from ..clocking.master import OVERSAMPLING_RATIO
from ..errors import ConfigError
from ..sc.opamp import OpAmpModel
from ..signals.waveform import Waveform
from ..units import DEFAULT_VREF
from .counters import SignatureCounter
from .sigma_delta import PAPER_INTEGRATOR_GAIN, FirstOrderSigmaDelta
from .signatures import SignaturePair


class SinewaveEvaluator:
    """Square-wave + sigma-delta sinewave evaluator.

    Parameters
    ----------
    oversampling_ratio:
        ``N = feva/fwave`` (96 in the paper's analyzer; configurable for
        ablation studies).
    vref:
        Modulator reference voltage.
    gain:
        Integrator gain ``CI/CF`` (paper: 0.4).
    opamp1, opamp2:
        Amplifier models of the two (nominally matched) modulators.
    comparator_offset1, comparator_offset2:
        Comparator threshold errors of the two channels.
    rng:
        Noise source shared by the two channels.
    chopped:
        Offset-cancelling chopped counting (default True; False for the
        ablation benchmark).
    """

    def __init__(
        self,
        oversampling_ratio: int = OVERSAMPLING_RATIO,
        vref: float = DEFAULT_VREF,
        gain: float = PAPER_INTEGRATOR_GAIN,
        opamp1: OpAmpModel | None = None,
        opamp2: OpAmpModel | None = None,
        comparator_offset1: float = 0.0,
        comparator_offset2: float = 0.0,
        rng: np.random.Generator | None = None,
        chopped: bool = True,
    ) -> None:
        if not isinstance(oversampling_ratio, int) or oversampling_ratio < 4:
            raise ConfigError(
                f"oversampling ratio must be an integer >= 4, got {oversampling_ratio!r}"
            )
        self.oversampling_ratio = oversampling_ratio
        self.vref = float(vref)
        self.channel1 = FirstOrderSigmaDelta(
            gain=gain,
            vref=vref,
            opamp=opamp1,
            comparator_offset=comparator_offset1,
            rng=rng,
        )
        self.channel2 = FirstOrderSigmaDelta(
            gain=gain,
            vref=vref,
            opamp=opamp2,
            comparator_offset=comparator_offset2,
            rng=rng,
        )
        self.chopped = chopped
        self.counter = SignatureCounter(chopped=chopped)

    # ------------------------------------------------------------------
    def required_samples(self, m_periods: int) -> int:
        """Samples needed to integrate over ``M`` periods (``M * N``)."""
        if m_periods < 1:
            raise ConfigError(f"m_periods must be >= 1, got {m_periods}")
        return m_periods * self.oversampling_ratio

    def validate_window(self, m_periods: int, harmonic: int) -> None:
        """Check the paper's feasibility conditions for a measurement."""
        if self.chopped and m_periods % 2 != 0:
            raise ConfigError(
                f"chopped offset cancellation requires an even number of "
                f"evaluation periods M, got M={m_periods} (paper Section III.B)"
            )
        # Constructing the sequence validates N % 4k == 0.
        ModulationSequence(self.oversampling_ratio, harmonic)

    # ------------------------------------------------------------------
    def measure(
        self,
        signal,
        harmonic: int,
        m_periods: int,
        u0: tuple[float, float] = (0.0, 0.0),
    ) -> SignaturePair:
        """Acquire the signatures of one harmonic.

        Parameters
        ----------
        signal:
            The signal under evaluation: a :class:`Waveform` or a plain
            array of samples on the evaluator clock.  Must contain at
            least ``M * N`` samples; extra tail samples are ignored.
            Sample 0 is the phase reference (square-wave phase origin).
        harmonic:
            ``k`` — 0 measures the DC level.
        m_periods:
            ``M`` — number of signal periods to integrate (even when
            chopping).
        u0:
            Initial integrator states of the two channels (power-up
            state; randomized across the paper's 25-run repeatability
            experiment).
        """
        self.validate_window(m_periods, harmonic)
        if isinstance(signal, Waveform):
            samples = signal.samples
        else:
            samples = np.asarray(signal, dtype=float)
        mn = self.required_samples(m_periods)
        if len(samples) < mn:
            raise ConfigError(
                f"signal too short: need {mn} samples for M={m_periods} at "
                f"N={self.oversampling_ratio}, got {len(samples)}"
            )
        x = samples[:mn]
        sequence = ModulationSequence(self.oversampling_ratio, harmonic)
        q1, q2 = sequence.pair(mn)
        if self.chopped:
            chop = SignatureCounter.chop_signs(mn)
            q1 = q1 * chop
            q2 = q2 * chop
        r1 = self.channel1.modulate(x, q1, u0=u0[0])
        r2 = self.channel2.modulate(x, q2, u0=u0[1])
        c1 = self.counter.count(r1.bits)
        c2 = self.counter.count(r2.bits)
        return SignaturePair(
            i1=c1.signature,
            i2=c2.signature,
            harmonic=harmonic,
            m_periods=m_periods,
            oversampling_ratio=self.oversampling_ratio,
            vref=self.vref,
            chopped=self.chopped,
            overload_count=r1.overload_count + r2.overload_count,
        )

    def measure_dc(
        self,
        signal,
        m_periods: int,
        u0: tuple[float, float] = (0.0, 0.0),
    ) -> SignaturePair:
        """Acquire the DC-level signatures (k = 0 configuration)."""
        return self.measure(signal, harmonic=0, m_periods=m_periods, u0=u0)

    def allowed_harmonics(self, k_max: int | None = None) -> list[int]:
        """Harmonics realizable at this oversampling ratio."""
        return ModulationSequence.allowed_harmonics(self.oversampling_ratio, k_max)
