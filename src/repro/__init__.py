"""repro — reproduction of the DATE 2008 analog-BIST network analyzer.

Barragán, Vázquez, Rueda: *Practical Implementation of a Network Analyzer
for Analog BIST Applications* (DATE 2008).

An on-chip network analyzer for analog built-in self-test: a
switched-capacitor sinewave generator synthesizes the stimulus, a
square-wave + sigma-delta evaluator digitizes the response into counted
signatures, and simple digital arithmetic recovers magnitude, phase and
harmonic distortion with *guaranteed* error bounds — over 70 dB of
dynamic range up to 20 kHz, all retuned by a single master clock.

Quickstart::

    from repro import AnalyzerConfig, NetworkAnalyzer
    from repro.dut import ActiveRCLowpass

    dut = ActiveRCLowpass.from_specs(cutoff=1000.0)
    analyzer = NetworkAnalyzer(dut, AnalyzerConfig.ideal())
    analyzer.calibrate(fwave=1000.0)
    point = analyzer.measure_gain_phase(fwave=1000.0)
    print(point.gain_db, point.phase_deg)

The unified public seam over every workload — one validated
:class:`~repro.api.policy.ExecutionPolicy`, one
:class:`~repro.api.session.Session` facade, one common result protocol —
lives in :mod:`repro.api`::

    from repro import ExecutionPolicy, Session

    session = Session(dut, policy=ExecutionPolicy(backend="vectorized"))
    bode = session.bode([250.0, 1000.0, 4000.0])
    print(bode.raw.gain_db(), bode.stats.cache_hits)

Every session method (``bode``, ``yield_lot``, ``fault_coverage``,
``diagnose``, ``distortion``, ``dynamic_range``, ``run_scenario``)
shares one calibration cache and one batch runner, and returns the same
exact/float channel split with uniform JSON/CSV export.

Observability (:mod:`repro.obs`) rides the same seam: pass a
:class:`~repro.obs.TraceRecorder` as ``Session(..., obs=recorder)`` (or
``--trace PATH.jsonl`` on the CLI) to capture the invocation's span tree
— session calls, scenario steps, campaigns, engine batches, calibrations
— with typed metrics and a deterministic exact channel; the default
:class:`~repro.obs.NullRecorder` costs nothing.

Batch execution (sweeps and Monte-Carlo lots as parallel job batches)
lives in :mod:`repro.engine`::

    from repro import BatchRunner

    runner = BatchRunner(n_workers=4)
    bode = runner.run_bode(dut, AnalyzerConfig.ideal(), [250.0, 1000.0, 4000.0])

On a single-core host use ``BatchRunner(backend="vectorized")`` instead:
whole populations evaluated as array batches, result-equivalent to the
per-job reference backend (:mod:`repro.engine.vectorized`).

Fault dictionaries and component-level diagnosis (which fault explains
a failing signature, with honest ambiguity groups) live in
:mod:`repro.faults`.

Whole test programs — sweeps, yield lots, fault campaigns, distortion
probes as one declarative JSON spec with golden-baseline record/check
regression testing — live in :mod:`repro.scenarios`.

See ``README.md`` for installation and a tour, ``DESIGN.md`` for the
system inventory and ``EXPERIMENTS.md`` for the paper-vs-measured record
of every table and figure.
"""

from .core import (
    AnalyzerConfig,
    BodeResult,
    CalibrationResult,
    DistortionReport,
    FrequencySweepPlan,
    GainPhaseMeasurement,
    NetworkAnalyzer,
    StimulusMeasurement,
    THDReport,
    bounded_db,
    evaluator_dynamic_range,
    measure_distortion,
    measure_thd,
    system_dynamic_range,
)
from .api import ExecutionPolicy, Result, Session, SessionResult, SessionStats
from .engine import BatchRunner, BatchStats, CalibrationCache
from .errors import (
    CalibrationError,
    ConfigError,
    EvaluationError,
    FaultError,
    ReproError,
    TimingError,
)
from .intervals import BoundedArray, BoundedValue, angular_gap, angular_overlap
from .obs import MetricRegistry, NullRecorder, Trace, TraceRecorder
from .scenarios import ScenarioResult, ScenarioSpec, run_scenario

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "NetworkAnalyzer",
    "AnalyzerConfig",
    "CalibrationResult",
    "BodeResult",
    "FrequencySweepPlan",
    "GainPhaseMeasurement",
    "StimulusMeasurement",
    "DistortionReport",
    "measure_distortion",
    "THDReport",
    "measure_thd",
    "evaluator_dynamic_range",
    "system_dynamic_range",
    "bounded_db",
    "BoundedValue",
    "BoundedArray",
    "angular_gap",
    "angular_overlap",
    "BatchRunner",
    "BatchStats",
    "CalibrationCache",
    "Session",
    "ExecutionPolicy",
    "Result",
    "SessionResult",
    "SessionStats",
    "ScenarioSpec",
    "ScenarioResult",
    "run_scenario",
    "TraceRecorder",
    "NullRecorder",
    "Trace",
    "MetricRegistry",
    "ReproError",
    "ConfigError",
    "TimingError",
    "EvaluationError",
    "CalibrationError",
    "FaultError",
]
