"""Job definitions: the picklable unit of batch work.

A job payload carries everything one worker process needs to reproduce a
measurement from scratch — DUT description, analyzer configuration,
pre-acquired calibration, and the job's batch index (which fixes its
derived noise substream).  Payloads are plain frozen dataclasses of
picklable parts, and the executor functions are module-level, which is
what :mod:`concurrent.futures` process pools require.

Every executor builds a *fresh* analyzer.  That is not an implementation
shortcut but the semantic contract that makes parallelism exact: a fresh
analyzer re-seeds the same mismatch die from the config and consumes
only its own job-derived noise stream, so the result depends on the job
payload alone — never on which worker ran it, or what ran before it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bist.limits import SpecMask
from ..bist.program import BISTProgram
from ..core.analyzer import NetworkAnalyzer
from ..core.calibration import CalibrationResult
from ..core.config import AnalyzerConfig
from ..core.measurement import GainPhaseMeasurement
from ..dut.active_rc import ActiveRCLowpass, FilterComponents
from ..dut.base import DUT
from .seeding import config_for_job


@dataclass(frozen=True)
class SweepPointJob:
    """One Bode point: measure DUT gain/phase at one tone frequency."""

    index: int
    fwave: float
    m_periods: int | None
    dut: DUT
    config: AnalyzerConfig
    calibration: CalibrationResult


def execute_sweep_point(job: SweepPointJob) -> GainPhaseMeasurement:
    """Run one sweep point in isolation (worker-process entry point)."""
    config = config_for_job(job.config, "sweep", job.index)
    analyzer = NetworkAnalyzer(job.dut, config)
    return analyzer.measure_gain_phase(
        job.fwave, m_periods=job.m_periods, calibration=job.calibration
    )


@dataclass(frozen=True)
class FaultTrialJob:
    """One fault-campaign trial: measure a (possibly faulty) DUT at a
    tuple of probe frequencies.

    The whole multi-frequency signature is one job (not one job per
    point): a fault dictionary compares *signatures*, so keeping the
    signature's acquisition order fixed inside a single job is what
    makes the dictionary independent of how the campaign is scheduled.
    """

    index: int
    dut: DUT
    frequencies: tuple[float, ...]
    m_periods: int | None
    config: AnalyzerConfig
    calibration: CalibrationResult


def execute_fault_trial(job: FaultTrialJob) -> tuple[GainPhaseMeasurement, ...]:
    """Measure one faulty device's signature (worker-process entry)."""
    config = config_for_job(job.config, "fault", job.index)
    analyzer = NetworkAnalyzer(job.dut, config)
    return tuple(
        analyzer.measure_gain_phase(
            f, m_periods=job.m_periods, calibration=job.calibration
        )
        for f in job.frequencies
    )


@dataclass(frozen=True)
class PseudorandomTrialJob:
    """One pseudorandom-BIST trial: measure a (possibly faulty) DUT at
    its plan's pseudorandom tone placements and compact the quantized
    response into a MISR signature.

    Like :class:`FaultTrialJob`, the whole multi-frequency response is
    one job: the MISR folds words in acquisition order, so keeping the
    stream inside a single job is what makes the signature independent
    of how the campaign is scheduled.  Compaction happens *in the
    worker* — pure integer arithmetic on the measurement's counted
    signatures, deterministic by construction.
    """

    index: int
    dut: DUT
    frequencies: tuple[float, ...]
    m_periods: int | None
    config: AnalyzerConfig
    calibration: CalibrationResult
    misr: object  # a repro.prbist.misr.MISRConfig (kept lazy here)


def execute_pseudorandom_trial(job: PseudorandomTrialJob):
    """Measure and compact one device's response (worker-process entry)."""
    from ..prbist.misr import PrbistTrial, misr_compact, response_words

    config = config_for_job(job.config, "prbist", job.index)
    analyzer = NetworkAnalyzer(job.dut, config)
    measurements = tuple(
        analyzer.measure_gain_phase(
            f, m_periods=job.m_periods, calibration=job.calibration
        )
        for f in job.frequencies
    )
    words = response_words(measurements, job.misr.width)
    return PrbistTrial(words=words, signature=misr_compact(words, job.misr))


@dataclass(frozen=True)
class DistortionJob:
    """One full harmonic-distortion experiment at one stimulus frequency."""

    index: int
    fwave: float
    harmonics: tuple[int, ...]
    m_periods: int
    dut: DUT
    config: AnalyzerConfig


def execute_distortion(job: DistortionJob):
    """Run one Fig. 10c experiment in isolation (worker-process entry)."""
    from ..core.distortion import measure_distortion

    config = config_for_job(job.config, "distortion", job.index)
    analyzer = NetworkAnalyzer(job.dut, config)
    return measure_distortion(
        analyzer, job.fwave, harmonics=job.harmonics, m_periods=job.m_periods
    )


@dataclass(frozen=True)
class EvaluatorProbeJob:
    """One weak-tone detectability probe of the evaluator alone.

    Probes are synthetic (the signal is generated from the payload, no
    RNG involved), so the job needs no seed derivation: any schedule
    reproduces the same numbers.
    """

    level_dbc: float
    m_periods: int
    carrier_amplitude: float
    vref: float
    harmonic: int
    threshold_db: float
    oversampling_ratio: int


def execute_evaluator_probe(job: EvaluatorProbeJob):
    """Run one dynamic-range probe (worker-process entry)."""
    from ..core.dynamic_range import run_evaluator_probe

    return run_evaluator_probe(job)


@dataclass(frozen=True)
class DeviceTrialJob:
    """One Monte-Carlo device: component draw + go/no-go program run.

    The component values are drawn *serially* by the dispatcher (drawing
    is cheap; simulating is not), so the lot is identical no matter how
    the trials are scheduled afterwards.
    """

    index: int
    components: FilterComponents
    mask: SpecMask
    program: BISTProgram
    config: AnalyzerConfig
    calibration: CalibrationResult | None


def execute_device_trial(job: DeviceTrialJob) -> tuple[str, bool]:
    """Run one device through the BIST program (worker-process entry):
    its ``(verdict, truly_good)`` pair."""
    from ..bist.montecarlo import _truly_good
    from ..dut.statespace import stack_population

    config = config_for_job(job.config, "trial", job.index)
    device = ActiveRCLowpass(job.components, name=f"device #{job.index}")
    analyzer = NetworkAnalyzer(device, config)
    if job.calibration is not None:
        analyzer.use_calibration(job.calibration)
    report = job.program.run(analyzer)
    truly_good = _truly_good(
        stack_population([device], config.dut_settle_tolerance),
        job.mask,
        job.program.frequencies,
    )[0]
    return report.verdict, truly_good
