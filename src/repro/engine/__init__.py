"""Batch execution engine: sweeps and Monte-Carlo lots as job batches.

The paper's analyzer is a production-test instrument; its figure of
merit is throughput — Bode sweeps per second, devices dispositioned per
wafer.  This subsystem turns the per-point measurement loop into
schedulable batches:

* :class:`BatchRunner` — process-parallel execution with deterministic
  per-job seeding (parallel results are bit-identical to serial) and
  ordered results; its ``backend="vectorized"`` seam swaps the per-job
  strategy for in-process population batches
  (:mod:`repro.engine.vectorized`) — the single-core throughput path;
* :class:`CalibrationCache` — the paper's "calibration only needs to be
  performed once", enforced across sweeps and lots;
* :mod:`repro.engine.seeding` — order-independent derivation of per-job
  noise substreams;
* :mod:`repro.engine.jobs` — the picklable job payloads and their
  worker-process entry points.

Every workload reaches this engine through one
:class:`repro.api.Session`, whose policy builds the runner; the plain
serial APIs (:meth:`repro.NetworkAnalyzer.bode`,
:func:`repro.bist.run_yield_analysis`) run on a default session.
"""

from .cache import CalibrationCache, acquire_calibration
from .jobs import (
    DeviceTrialJob,
    DistortionJob,
    EvaluatorProbeJob,
    FaultTrialJob,
    SweepPointJob,
    execute_device_trial,
    execute_distortion,
    execute_evaluator_probe,
    execute_fault_trial,
    execute_sweep_point,
)
from .runner import BACKENDS, BatchRunner, BatchStats, default_workers
from .seeding import config_for_job, derive_seed
from .vectorized import PopulationMeasurer

__all__ = [
    "BACKENDS",
    "BatchRunner",
    "BatchStats",
    "PopulationMeasurer",
    "CalibrationCache",
    "DeviceTrialJob",
    "DistortionJob",
    "EvaluatorProbeJob",
    "FaultTrialJob",
    "SweepPointJob",
    "acquire_calibration",
    "config_for_job",
    "default_workers",
    "derive_seed",
    "execute_device_trial",
    "execute_distortion",
    "execute_evaluator_probe",
    "execute_fault_trial",
    "execute_sweep_point",
]
