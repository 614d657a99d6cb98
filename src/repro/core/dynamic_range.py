"""Dynamic-range characterization (the headline 70 dB / 20 kHz claim).

Two notions of dynamic range matter in the paper:

* the **evaluator's** dynamic range — how small a harmonic component it
  can still measure accurately next to a full-scale fundamental.  Fig. 9
  demonstrates -40 dBc components measured to fractions of a dB and notes
  "the evaluator does not limit the dynamic range of the network
  analyzer, since the accuracy of the evaluation can be selected by
  choosing a proper number of periods M";
* the **system** dynamic range — limited in practice by the generator's
  spectral purity (~70 dB SFDR in Fig. 8b).

Both are characterized here.  The evaluator sweep injects a synthetic
two-tone signal directly (like the paper's Fig. 9 setup); the system
sweep measures the analyzer's own residual harmonics on the calibration
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..clocking.master import OVERSAMPLING_RATIO
from ..errors import ConfigError
from ..evaluator.dsp import SignatureDSP
from ..evaluator.evaluator import SinewaveEvaluator
from .analyzer import NetworkAnalyzer


@dataclass(frozen=True)
class ProbeResult:
    """One weak-tone detection probe."""

    level_dbc: float  # programmed weak-tone level relative to the carrier
    true_amplitude: float
    measured_amplitude: float
    error_db: float  # |20 log10(measured / true)|
    detected: bool


@dataclass(frozen=True)
class DynamicRangeResult:
    """Outcome of a dynamic-range sweep."""

    m_periods: int
    carrier_amplitude: float
    probes: tuple[ProbeResult, ...]
    threshold_db: float

    @property
    def dynamic_range_db(self) -> float:
        """Deepest level (positive dB) still detected within threshold."""
        detected = [-p.level_dbc for p in self.probes if p.detected]
        return max(detected) if detected else 0.0


def run_evaluator_probe(job) -> ProbeResult:
    """One weak-tone detectability probe (pure function of the payload).

    The probe synthesizes its own two-tone signal and runs a fresh ideal
    evaluator, so it is deterministic and schedulable as an independent
    :class:`~repro.engine.jobs.EvaluatorProbeJob` — no seeding needed.
    """
    mn = job.m_periods * job.oversampling_ratio
    n = np.arange(mn)
    carrier = job.carrier_amplitude * np.sin(
        2.0 * np.pi * n / job.oversampling_ratio
    )
    weak_amplitude = job.carrier_amplitude * 10.0 ** (job.level_dbc / 20.0)
    x = carrier + weak_amplitude * np.sin(
        2.0 * np.pi * job.harmonic * n / job.oversampling_ratio
    )
    evaluator = SinewaveEvaluator(
        oversampling_ratio=job.oversampling_ratio, vref=job.vref
    )
    sig = evaluator.measure(x, harmonic=job.harmonic, m_periods=job.m_periods)
    measured = SignatureDSP().amplitude(sig).value
    if measured <= 0:
        error_db = math.inf
    else:
        error_db = abs(20.0 * math.log10(measured / weak_amplitude))
    return ProbeResult(
        level_dbc=job.level_dbc,
        true_amplitude=weak_amplitude,
        measured_amplitude=measured,
        error_db=error_db,
        detected=error_db <= job.threshold_db,
    )


def evaluator_dynamic_range(
    m_periods: int = 1000,
    carrier_amplitude: float = 0.4,
    vref: float = 0.5,
    harmonic: int = 3,
    levels_dbc=(-30.0, -40.0, -50.0, -60.0, -70.0, -80.0, -90.0),
    threshold_db: float = 3.0,
    oversampling_ratio: int = OVERSAMPLING_RATIO,
    runner=None,
) -> DynamicRangeResult:
    """Weak-tone detectability of the evaluator alone (Fig. 9 style).

    A full-scale-ish carrier at the fundamental plus a weak tone at
    ``harmonic``; the weak tone's level is stepped down until the
    evaluator's measurement departs from the truth by more than
    ``threshold_db``.

    Each level is an independent, deterministic probe, dispatched
    through the batch engine: on ``runner`` when given (its worker pool
    is used, its calibration cache is not involved), else serially.
    :meth:`repro.api.session.Session.dynamic_range` passes its own
    runner, so a session's policy decides the parallelism.
    """
    from ..api.policy import ExecutionPolicy
    from ..engine.jobs import EvaluatorProbeJob, execute_evaluator_probe

    if not 0 < carrier_amplitude < vref:
        raise ConfigError(
            f"carrier amplitude must be within the stable range (0, {vref}), "
            f"got {carrier_amplitude!r}"
        )
    if m_periods % 2 != 0:
        raise ConfigError(f"m_periods must be even, got {m_periods}")
    jobs = [
        EvaluatorProbeJob(
            level_dbc=float(level),
            m_periods=m_periods,
            carrier_amplitude=carrier_amplitude,
            vref=vref,
            harmonic=harmonic,
            threshold_db=threshold_db,
            oversampling_ratio=oversampling_ratio,
        )
        for level in sorted(levels_dbc, reverse=True)
    ]
    engine = runner if runner is not None else ExecutionPolicy().build_runner()
    probes = engine.map_jobs(execute_evaluator_probe, jobs)
    return DynamicRangeResult(
        m_periods=m_periods,
        carrier_amplitude=carrier_amplitude,
        probes=tuple(probes),
        threshold_db=threshold_db,
    )


def theoretical_floor_dbc(
    m_periods: int,
    carrier_amplitude: float = 0.4,
    vref: float = 0.5,
    epsilon: float = 4.0,
    oversampling_ratio: int = OVERSAMPLING_RATIO,
) -> float:
    """Bound-limited measurement floor relative to the carrier (negative dB).

    The smallest amplitude whose error interval stays meaningful is set by
    the eps-rectangle: ``(pi/2) vref eps sqrt(2) / (M N)``.
    """
    dsp = SignatureDSP(epsilon)
    floor = dsp.noise_floor(m_periods, oversampling_ratio, vref)
    return 20.0 * math.log10(floor / carrier_amplitude)


def system_dynamic_range(
    analyzer: NetworkAnalyzer,
    fwave: float,
    m_periods: int | None = None,
    harmonics: tuple[int, ...] = (2, 3),
) -> float:
    """System-level dynamic range at one frequency (positive dB).

    Measures the analyzer's own residual harmonic levels on the
    calibration path — in silicon this is what the generator's analog
    purity (~70 dB SFDR) caps.  The DSP subtracts its *known* staircase
    image leakage (see :mod:`repro.core.compensation`): an ideal
    generator then reads only the quantization floor, while mismatch and
    amplifier errors surface as genuine in-band residuals, exactly the
    mechanism that limits the fabricated system.
    """
    import cmath

    from .compensation import bypass_response

    if any(k < 2 for k in harmonics):
        raise ConfigError(f"harmonics must be >= 2, got {harmonics}")
    m = m_periods if m_periods is not None else analyzer.config.m_periods
    fundamental = analyzer.measure_stimulus(
        fwave, through_dut=False, m_periods=m, harmonic=1
    )
    z1 = fundamental.amplitude.value * cmath.exp(1j * fundamental.phase.value)
    worst = 0.0
    for k in harmonics:
        measurement = analyzer.measure_stimulus(
            fwave, through_dut=False, m_periods=m, harmonic=k
        )
        zk = measurement.amplitude.value * cmath.exp(1j * measurement.phase.value)
        if analyzer.config.image_compensation:
            zk -= bypass_response(k, analyzer.config_generator_caps()) * z1
        worst = max(worst, abs(zk))
    if worst <= 0:
        return math.inf
    return 20.0 * math.log10(abs(z1) / worst)
