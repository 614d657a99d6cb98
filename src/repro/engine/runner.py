"""The batch execution engine.

:class:`BatchRunner` schedules measurement jobs — Bode sweep points,
Monte-Carlo device trials, or any picklable job list — over a pool of
worker processes.  Three properties make it production-grade rather than
a bare ``Pool.map``:

* **Determinism** — jobs carry deterministic per-job seeds (see
  :mod:`repro.engine.seeding`), so results are bit-identical whether the
  batch runs serially, on 4 workers, or on 40, and results are always
  returned in job order regardless of completion order.
* **Calibration caching** — the one-off stimulus calibration is
  acquired once per ``(AnalyzerConfig, fwave, m_periods)`` and shared by
  every job in every subsequent batch (see
  :mod:`repro.engine.cache`).
* **Graceful serial fallback** — ``n_workers=1`` executes inline with no
  process pool, no pickling, and no import-time side effects, producing
  exactly the same numbers.

The per-process simulation is already NumPy-vectorized (see the fast
path in :mod:`repro.evaluator.sigma_delta`), so worker processes scale
the remaining irreducibly serial recurrences across cores.

Where cores are scarce (a single-CPU tester host), the runner's
``backend="vectorized"`` seam instead batches whole *populations* —
Monte-Carlo lots, fault catalogs, sweep grids — as stacked array
operations in one process (:mod:`repro.engine.vectorized`), result-
equivalent to the reference per-job path.

Every population workload — sweeps, fault campaigns, pseudorandom
campaigns, yield lots and distortion batches — runs through one
dispatcher, :meth:`BatchRunner._run_population`.  A public ``run_*``
method validates its arguments and describes one *chunk* of its work:
the reference job list, or a vectorized measurement task.  The
dispatcher owns everything else once: the batch span, calibration,
chunk bounds, the ``chunk[k]`` and ``job[i]`` spans, the backend
decision and the batch accounting.  A chunk runs inline on the calling
thread, or, on a runner given a thread ``pool`` (the service's
:class:`~repro.service.sharding.WorkerPool`), as a pure task on that
pool with at most ``n_workers`` chunks of the batch in flight.
"""

from __future__ import annotations

import copy
import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..bist.limits import SpecMask
from ..bist.program import BISTProgram
from ..core.bode import BodeResult
from ..core.calibration import CalibrationResult
from ..core.config import AnalyzerConfig
from ..core.measurement import GainPhaseMeasurement
from ..dut.active_rc import FilterComponents, lot_population
from ..dut.base import DUT
from ..dut.statespace import stack_population
from ..errors import ConfigError, require_count
from ..obs.metrics import MetricRegistry
from ..obs.recorder import default_recorder
from . import vectorized
from .cache import CalibrationCache
from .jobs import (
    DeviceTrialJob,
    DistortionJob,
    FaultTrialJob,
    PseudorandomTrialJob,
    SweepPointJob,
    execute_device_trial,
    execute_distortion,
    execute_fault_trial,
    execute_pseudorandom_trial,
    execute_sweep_point,
)


def default_workers() -> int:
    """A sensible worker count for this machine (>= 1)."""
    return max(1, os.cpu_count() or 1)


#: The two execution backends a runner can schedule batches on.
BACKENDS = ("reference", "vectorized")


@dataclass(frozen=True)
class BatchStats:
    """Accounting for one engine batch.

    ``n_workers`` is the *effective* worker count the batch actually
    used (1 when the batch ran inline), not the runner's configured
    maximum.  ``backend`` is the backend that actually executed the
    batch — ``"reference"`` even on a vectorized runner when the
    workload has no vectorized path (distortion) and the batch fell
    back.  Every :class:`~repro.core.config.AnalyzerConfig` itself
    vectorizes.
    """

    n_jobs: int
    n_workers: int
    cache_hits: int
    cache_misses: int
    backend: str = "reference"

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


def _run_jobs(fn, jobs: list) -> list:
    """A reference chunk on a pool thread: its jobs, serially, in order."""
    return [fn(job) for job in jobs]


def _misr_trials(misr, measure) -> list:
    """MISR-compact each device of a measured prbist chunk."""
    from ..prbist.misr import PrbistTrial, misr_compact, response_words

    trials = []
    for measurements in measure():
        words = response_words(measurements, misr.width)
        trials.append(
            PrbistTrial(words=words, signature=misr_compact(words, misr))
        )
    return trials


class BatchRunner:
    """Schedulable batch execution of analyzer measurements.

    Parameters
    ----------
    n_workers:
        Worker processes.  1 (default) runs inline; ``N > 1`` uses a
        :class:`concurrent.futures.ProcessPoolExecutor`.  On a runner
        with a ``pool`` it is instead the most chunks of one batch in
        flight on that pool.
    cache:
        Calibration cache to consult and fill; a private one is created
        when not provided.  Share one cache across runners to amortize
        calibration over many sweeps.
    backend:
        ``"reference"`` (default) executes one Python job per
        measurement — the shape process parallelism fans out.
        ``"vectorized"`` evaluates whole populations as stacked array
        operations in this process (see
        :mod:`repro.engine.vectorized`): the single-core throughput
        path, result-equivalent to the reference backend for *every*
        configuration.  Vectorized batches run inline — ``n_workers``
        only affects batches that fall back to the reference backend
        because their workload has no vectorized path (the distortion
        workload).
    chunk_size:
        Device-axis shard size, or ``None`` (default) to run each batch
        whole.  When set, population batches — sweeps, fault campaigns,
        pseudorandom campaigns, Monte-Carlo lots — stream through the
        engine ``chunk_size`` jobs at a time, bounding peak memory at
        O(chunk) instead of O(lot) while producing bit-identical exact
        channels: per-job seed substreams are indexed by each job's
        *absolute* lot position, so results never depend on where the
        chunk boundaries fall.  Each chunk gets its own trace span
        (``chunk[k]``); unchunked runs emit no chunk spans, so their
        traces are byte-identical to pre-chunking traces.
    obs:
        Trace recorder (see :mod:`repro.obs`).  Defaults to the
        process-wide default recorder — the shared ``NullRecorder``
        unless a harness installed one — so tracing is zero-cost until
        opted into.  Passing an explicit recorder also re-points an
        *adopted* cache's recorder, so calibration spans land in the
        same trace as the batches that triggered them.
    metrics:
        Registry for the runner's ``engine.*`` counters; a private one
        is created when not provided.  An adopted cache keeps its own
        registry (its counters stay the one source of truth for
        hit/miss accounting) — trace export merges the snapshots.
    pool:
        Where chunks run: ``None`` (default) runs each chunk inline on
        the calling thread; a thread pool whose ``submit(task)``
        returns a :class:`concurrent.futures.Future` (the service's
        :class:`~repro.service.sharding.WorkerPool`) runs each chunk as
        a task there, results still in job order.  A chunk on a pool
        runs its reference jobs serially: only an inline runner opens a
        process pool.  The runner never closes a pool it was given.
    """

    def __init__(
        self,
        n_workers: int = 1,
        cache: CalibrationCache | None = None,
        backend: str = "reference",
        *,
        chunk_size: int | None = None,
        obs=None,
        metrics: MetricRegistry | None = None,
        pool=None,
    ) -> None:
        if not isinstance(n_workers, int) or n_workers < 1:
            raise ConfigError(f"n_workers must be an integer >= 1, got {n_workers!r}")
        if backend not in BACKENDS:
            raise ConfigError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if chunk_size is not None and (
            not isinstance(chunk_size, int)
            or isinstance(chunk_size, bool)
            or chunk_size < 1
        ):
            raise ConfigError(
                f"chunk_size must be an integer >= 1 or None, got {chunk_size!r}"
            )
        self.n_workers = n_workers
        self.backend = backend
        self.chunk_size = chunk_size
        self.pool = pool
        self.obs = obs if obs is not None else default_recorder()
        self.metrics = metrics if metrics is not None else MetricRegistry()
        if cache is None:
            self.cache = CalibrationCache(metrics=self.metrics, obs=self.obs)
        else:
            self.cache = cache
            if obs is not None:
                cache.obs = self.obs
        self.obs.attach_metrics(self.metrics)
        self.obs.attach_metrics(self.cache.metrics)
        self._batches = self.metrics.counter("engine.batches")
        self._jobs = self.metrics.counter("engine.jobs")
        self._fallbacks = self.metrics.counter("engine.fallbacks")
        self.last_stats: BatchStats | None = None
        self._executor: ProcessPoolExecutor | None = None
        self._last_effective_workers = 1

    def _plan_backend(self, vectorizable: bool = True) -> tuple[str, bool]:
        """``(backend actually used, is it a fallback)`` for one batch.

        The one seam where the backend decision is made: the trace
        ``"backend"`` event, :attr:`BatchStats.backend`, and the
        ``engine.fallbacks`` counter all consume this single result, so
        they can never disagree about what actually ran.  A *fallback*
        is a batch whose runner requested the vectorized backend but
        whose *workload* has no vectorized path (distortion); every
        :class:`~repro.core.config.AnalyzerConfig` itself vectorizes.
        """
        if self.backend != "vectorized":
            return "reference", False
        if not vectorizable:
            return "reference", True
        return "vectorized", False

    @property
    def fallbacks(self) -> int:
        """Batches forced off the vectorized backend (``engine.fallbacks``)."""
        return self._fallbacks.value

    def _chunk_bounds(self, n: int) -> list[tuple[int, int]]:
        """Device-axis shard boundaries for a batch of ``n`` jobs."""
        size = self.chunk_size
        if size is None or size >= n:
            return [(0, n)]
        return [(start, min(start + size, n)) for start in range(0, n, size)]

    def _chunk_span(self, k: int, start: int, stop: int):
        """The span for one device-axis chunk.

        Emitted only when chunking is configured — an unchunked runner's
        trace stays byte-identical to a pre-chunking trace.  The payload
        is exact-channel: which jobs land in which chunk is a pure
        function of ``(n_jobs, chunk_size)``, never of timing.
        """
        if self.chunk_size is None:
            return nullcontext()
        return self.obs.span(
            f"chunk[{k}]",
            kind="engine.chunk",
            exact={"index": k, "start": start, "n_jobs": stop - start},
        )

    # ------------------------------------------------------------------
    # Generic dispatch
    # ------------------------------------------------------------------
    def map_jobs(self, fn, jobs: list) -> list:
        """Execute ``fn`` over ``jobs``, results in job order.

        Serial when ``n_workers == 1`` or the batch is a single job;
        otherwise fans out over the runner's process pool.  The pool is
        created lazily on first parallel batch and *reused* by every
        batch after it, so repeated sweeps pay the worker spawn cost
        once (call :meth:`close`, or use the runner as a context
        manager, to release it).  ``fn`` must be a module-level
        callable and each job picklable.
        """
        jobs = list(jobs)
        workers = min(self.n_workers, len(jobs))
        if workers <= 1:
            self._last_effective_workers = 1
            if not self.obs.enabled:
                return [fn(job) for job in jobs]
            results = []
            for i, job in enumerate(jobs):
                with self._job_span(job, i, worker="inline"):
                    results.append(fn(job))
            return results
        self._last_effective_workers = workers
        chunk = max(1, len(jobs) // (4 * workers))
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.n_workers)
        results = list(self._executor.map(fn, jobs, chunksize=chunk))
        # Pool jobs execute in worker processes; their spans are emitted
        # here with zero-ish duration so the tree *shape* matches a
        # serial run — worker attribution is timing-channel.
        self._job_spans((getattr(job, "index", i) for i, job in enumerate(jobs)), "pool")
        return results

    def _job_span(self, job, i: int, worker: str):
        """The per-job span: exact name ``job[<seed index>]``."""
        span = self.obs.span(
            f"job[{getattr(job, 'index', i)}]", kind="engine.job"
        )
        span.annotate_timing(worker=worker)
        return span

    def _job_spans(self, indices, worker: str) -> None:
        """Zero-duration per-job spans for jobs that ran elsewhere.

        A vectorized chunk evaluates its population at once and a pool
        runs its jobs off this thread; emitting one span per logical job
        here keeps the span tree shape identical to an inline reference
        run, which is what lets traces be diffed across backends and
        executors.
        """
        if not self.obs.enabled:
            return
        for i in indices:
            with self.obs.span(f"job[{i}]", kind="engine.job") as span:
                span.annotate_timing(worker=worker)

    def close(self) -> None:
        """Shut down the worker pool (no-op if none was created)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # The population dispatcher
    # ------------------------------------------------------------------
    def _run_population(
        self,
        name: str,
        exact: dict,
        n: int,
        prepare,
        *,
        first: int = 0,
        population: bool = True,
    ) -> list:
        """Run one batch of ``n`` jobs chunk by chunk; results in job order.

        ``prepare(used)`` runs first, inside the batch span, with the
        backend this batch uses: it acquires the calibration and returns
        ``chunk(start, stop)``, which builds the work of jobs
        ``start..stop``.  A chunk is either ``(fn, jobs)`` — reference
        jobs, run through :meth:`map_jobs` inline or serially on a pool
        thread — or ``(task, None)``, a vectorized task returning the
        chunk's results.  ``first`` is the seed index of job 0, and
        ``population=False`` marks a workload with no vectorized path
        that is never chunked (distortion).

        ``chunk`` always runs on this thread, in chunk order: anything
        that consumes a shared RNG (a yield lot's component draws) or
        grows shared state (the measurer's stimulus render) happens
        there.  A task handed to a pool only reads what its chunk was
        given and returns results; every span and counter is emitted
        here, in chunk order, so a batch's exact channel is the same on
        every executor.  At most ``n_workers`` chunks are in flight on a
        pool, so a lot's footprint stays O(``n_workers`` x chunk), and a
        failed chunk fails the batch once its in-flight siblings settle.
        """
        hits0, misses0 = self.cache.hits, self.cache.misses
        used, fallback = self._plan_backend(population)
        bounds = self._chunk_bounds(n) if population else [(0, n)]
        chunk_span = self._chunk_span if population else (
            lambda k, start, stop: nullcontext()
        )
        pool = self.pool
        results: list = []
        pending: deque = deque()

        def collect() -> None:
            k, start, stop, future = pending.popleft()
            with chunk_span(k, start, stop):
                results.extend(future.result())
                self._job_spans(range(first + start, first + stop), "pool")

        with self.obs.span(name, kind="engine.batch", exact=exact) as span:
            chunk = prepare(used)
            self._last_effective_workers = 1
            try:
                for k, (start, stop) in enumerate(bounds):
                    task, jobs = chunk(start, stop)
                    if pool is not None:
                        if jobs is not None:
                            task = partial(_run_jobs, task, jobs)
                        pending.append((k, start, stop, pool.submit(task)))
                        if len(pending) >= self.n_workers:
                            collect()
                        continue
                    with chunk_span(k, start, stop):
                        if jobs is not None:
                            results.extend(self.map_jobs(task, jobs))
                        else:
                            results.extend(task())
                            self._job_spans(
                                range(first + start, first + stop), "array"
                            )
                while pending:
                    collect()
            finally:
                wait([future for *_, future in pending])
            if pool is not None:
                self._last_effective_workers = min(self.n_workers, len(bounds))
            workers = self._last_effective_workers
            self._batches.inc()
            self._jobs.inc(n)
            if fallback:
                self._fallbacks.inc()
            hits, misses = self.cache.hits - hits0, self.cache.misses - misses0
            self.last_stats = BatchStats(n, workers, hits, misses, backend=used)
            # Cache deltas are backend-invariant (calibration is acquired
            # once per batch in this process): exact channel.  The
            # backend actually used, and whether it was a fallback, may
            # legitimately differ between a reference and a vectorized
            # run of one workload: timing channel, on every batch.
            span.annotate(cache_hits=hits, cache_misses=misses)
            span.annotate_timing(
                backend=used, fallback=fallback, n_workers=workers
            )
            span.event(
                "backend",
                timing={
                    "requested": self.backend,
                    "used": used,
                    "fallback": fallback,
                    "n_workers": workers,
                },
            )
        return results

    def _measurer(self, used: str, config, m_periods, calibration):
        """The batch's one :class:`PopulationMeasurer`, or None (reference).

        Every chunk of a vectorized batch shares it: its stimulus render
        and generator are grown by :meth:`PopulationMeasurer.reserve` on
        the dispatching thread and only read by chunk tasks.
        """
        if used != "vectorized":
            return None
        return vectorized.PopulationMeasurer(config, m_periods, calibration)

    # ------------------------------------------------------------------
    # Frequency sweeps
    # ------------------------------------------------------------------
    def calibration_for(
        self,
        config: AnalyzerConfig,
        fwave: float,
        m_periods: int | None = None,
    ) -> CalibrationResult:
        """The (cached) one-off calibration for a configuration."""
        return self.cache.get_or_acquire(config, fwave, m_periods)

    def run_sweep(
        self,
        dut: DUT,
        config: AnalyzerConfig,
        frequencies,
        m_periods: int | None = None,
        calibration: CalibrationResult | None = None,
        calibration_fwave: float | None = None,
        start_index: int = 0,
    ) -> list[GainPhaseMeasurement]:
        """Execute a frequency sweep as a job batch.

        When no ``calibration`` is supplied one is taken from the cache,
        acquired at ``calibration_fwave`` (default: the first sweep
        frequency — the paper's point is that the choice does not
        matter).

        ``start_index`` offsets the per-point seed indices, exactly as
        on :meth:`run_fault_trials`: a batch measuring a *slice* of a
        larger sweep keeps every point on the substream it would have
        had in the full sweep.  A sliced sweep must also pass the full
        sweep's ``calibration_fwave`` explicitly — the default (its own
        first frequency) differs per slice.
        """
        frequencies = [float(f) for f in frequencies]
        if not frequencies:
            raise ConfigError("frequency list is empty")
        if start_index < 0:
            raise ConfigError(f"start_index must be >= 0, got {start_index}")

        def prepare(used: str):
            acquired = calibration
            if acquired is None:
                fcal = (
                    calibration_fwave
                    if calibration_fwave is not None
                    else frequencies[0]
                )
                acquired = self.calibration_for(config, fcal, m_periods)
            measurer = self._measurer(used, config, m_periods, acquired)

            def chunk(start: int, stop: int):
                points = frequencies[start:stop]
                # Every point of a sweep measures the one device, a
                # stateful object: chunks running concurrently on a pool
                # each measure a private copy of it.
                device = dut if self.pool is None else copy.deepcopy(dut)
                if measurer is not None:
                    slot = stack_population(
                        [device] * len(points), config.dut_settle_tolerance
                    )
                    measurer.reserve(slot, points)
                    return partial(
                        vectorized.run_sweep_vectorized,
                        slot, points, measurer, start_index + start,
                    ), None
                return execute_sweep_point, [
                    SweepPointJob(
                        index=start_index + start + i,
                        fwave=f,
                        m_periods=m_periods,
                        dut=device,
                        config=config,
                        calibration=acquired,
                    )
                    for i, f in enumerate(points)
                ]

            return chunk

        return self._run_population(
            "engine.sweep",
            {"n_jobs": len(frequencies)},
            len(frequencies),
            prepare,
            first=start_index,
        )

    def run_bode(
        self,
        dut: DUT,
        config: AnalyzerConfig,
        frequencies,
        m_periods: int | None = None,
        calibration: CalibrationResult | None = None,
        calibration_fwave: float | None = None,
    ) -> BodeResult:
        """A sweep packaged as a :class:`~repro.core.bode.BodeResult`.

        Frequencies are sorted ascending before dispatch —
        ``BodeResult`` requires a strictly increasing grid.  Use
        :meth:`run_sweep` when the caller's ordering must be
        preserved.
        """
        points = self.run_sweep(
            dut,
            config,
            sorted(float(f) for f in frequencies),
            m_periods=m_periods,
            calibration=calibration,
            calibration_fwave=calibration_fwave,
        )
        return BodeResult(tuple(points))

    # ------------------------------------------------------------------
    # Fault campaigns
    # ------------------------------------------------------------------
    def run_fault_trials(
        self,
        duts,
        config: AnalyzerConfig,
        frequencies,
        m_periods: int | None = None,
        calibration_fwave: float | None = None,
        start_index: int = 0,
    ) -> list[tuple[GainPhaseMeasurement, ...]]:
        """Measure each DUT's multi-frequency signature as one job.

        The workload of a fault campaign: one (faulty) device per job,
        each measured at every probe frequency.  Calibration is fault-
        independent — it runs on the bypass path, never through the DUT
        — so the whole campaign shares one cached acquisition.

        ``start_index`` offsets the per-job seed indices: a batch that
        re-measures part of a larger logical campaign (e.g. the catalog
        after a separately measured nominal) keeps every device on the
        noise substream it would have had in the full batch.
        """
        return self._device_batch(
            duts, config, frequencies, m_periods, calibration_fwave, start_index
        )

    # ------------------------------------------------------------------
    # Pseudorandom-BIST campaigns
    # ------------------------------------------------------------------
    def run_pseudorandom_trials(
        self,
        duts,
        config: AnalyzerConfig,
        frequencies,
        misr,
        m_periods: int | None = None,
        calibration_fwave: float | None = None,
        start_index: int = 0,
    ) -> list:
        """Measure and MISR-compact each DUT's pseudorandom response.

        The pseudorandom-BIST workload: one (possibly faulty) device per
        job, measured at every pseudorandom tone placement, its counted
        sigma-delta signature integers folded into a ``misr``-configured
        signature register inside the job (see
        :func:`repro.engine.jobs.execute_pseudorandom_trial`).  Returns
        one :class:`~repro.prbist.misr.PrbistTrial` per device, in
        device order.  Calibration is stimulus-side and fault-
        independent, so the whole campaign shares one cached
        acquisition; on the vectorized backend the measurements batch
        exactly like a fault campaign (with the ``"prbist"`` seed
        stream) and compaction runs in the chunk on the returned
        integers — bit-identical signatures either way.
        """
        from ..prbist.misr import MISRConfig

        if not isinstance(misr, MISRConfig):
            raise ConfigError(
                f"run_pseudorandom_trials: misr must be a MISRConfig, "
                f"got {misr!r}"
            )
        return self._device_batch(
            duts, config, frequencies, m_periods, calibration_fwave,
            start_index, misr=misr,
        )

    def _device_batch(
        self,
        duts,
        config: AnalyzerConfig,
        frequencies,
        m_periods: int | None,
        calibration_fwave: float | None,
        start_index: int,
        misr=None,
    ) -> list:
        """A fault campaign, or with a ``misr`` a pseudorandom campaign.

        The two differ only in their seed stream, their reference job
        and the MISR compaction of each device's measurements.
        """
        frequencies = tuple(float(f) for f in frequencies)
        if not frequencies:
            raise ConfigError("frequency list is empty")
        duts = list(duts)
        if not duts:
            raise ConfigError("DUT list is empty")
        if start_index < 0:
            raise ConfigError(f"start_index must be >= 0, got {start_index}")
        if misr is None:
            name, stream = "engine.fault_trials", "fault"
            execute, make_job = execute_fault_trial, FaultTrialJob
        else:
            name, stream = "engine.pseudorandom_trials", "prbist"
            execute = execute_pseudorandom_trial
            make_job = partial(PseudorandomTrialJob, misr=misr)

        def prepare(used: str):
            fcal = (
                calibration_fwave
                if calibration_fwave is not None
                else frequencies[0]
            )
            calibration = self.calibration_for(config, fcal, m_periods)
            measurer = self._measurer(used, config, m_periods, calibration)

            def chunk(start: int, stop: int):
                if measurer is None:
                    return execute, [
                        make_job(
                            index=start_index + start + i,
                            dut=dut,
                            frequencies=frequencies,
                            m_periods=m_periods,
                            config=config,
                            calibration=calibration,
                        )
                        for i, dut in enumerate(duts[start:stop])
                    ]
                slot = stack_population(
                    duts[start:stop], config.dut_settle_tolerance
                )
                measurer.reserve(slot, frequencies)
                task = partial(
                    vectorized.run_fault_trials_vectorized,
                    slot, frequencies, measurer, start_index + start, stream,
                )
                if misr is not None:
                    task = partial(_misr_trials, misr, task)
                return task, None

            return chunk

        return self._run_population(
            name,
            {"n_jobs": len(duts), "start_index": start_index},
            len(duts),
            prepare,
            first=start_index,
        )

    # ------------------------------------------------------------------
    # Harmonic distortion
    # ------------------------------------------------------------------
    def run_distortion(
        self,
        dut: DUT,
        config: AnalyzerConfig,
        fwaves,
        harmonics: tuple[int, ...] = (2, 3),
        m_periods: int = 400,
    ) -> list:
        """One Fig. 10c distortion experiment per stimulus frequency.

        Needs no calibration (distortion is a ratio against the measured
        fundamental), so each frequency is simply an independent job.
        The workload has no vectorized path — on a vectorized runner it
        falls back to the reference backend (and counts as a fallback).
        It is also never chunked: a distortion batch is a handful of
        frequencies, not a device lot.
        """
        fwaves = [float(f) for f in fwaves]
        if not fwaves:
            raise ConfigError("stimulus frequency list is empty")
        jobs = [
            DistortionJob(
                index=i,
                fwave=f,
                harmonics=tuple(harmonics),
                m_periods=m_periods,
                dut=dut,
                config=config,
            )
            for i, f in enumerate(fwaves)
        ]
        return self._run_population(
            "engine.distortion",
            {"n_jobs": len(jobs)},
            len(jobs),
            lambda used: lambda start, stop: (execute_distortion, jobs),
            population=False,
        )

    # ------------------------------------------------------------------
    # Monte-Carlo yield analysis
    # ------------------------------------------------------------------
    def run_trials(
        self,
        nominal: FilterComponents,
        mask: SpecMask,
        program: BISTProgram,
        n_devices: int,
        component_sigma: float,
        seed: int,
        config: AnalyzerConfig,
    ) -> list[tuple[str, bool]]:
        """Simulate a lot of devices through a BIST program: each
        device's ``(verdict, truly_good)`` pair, in device order.

        Component values are drawn serially from one seeded RNG in
        device order (so the lot is a function of ``seed`` alone —
        identical across backends, chunk boundaries and executors): each
        chunk's components are drawn on the dispatching thread, and only
        its measurement is dispatched.  The reference backend measures
        each device trial as an independent job; the vectorized backend
        draws each chunk as one component array and measures it in
        stacked form, with no per-device DUT objects.  When
        ``chunk_size`` is set the lot streams through the engine one
        chunk of devices at a time, so a million-device lot never holds
        more than a few chunks' devices and responses in memory.  The
        program's one-off calibration is acquired once via the cache
        instead of once per device.
        """
        require_count("run_trials", "n_devices", n_devices, 1)
        if not (math.isfinite(component_sigma) and component_sigma >= 0):
            raise ConfigError(
                f"component_sigma must be finite and >= 0, got {component_sigma!r}"
            )

        def prepare(used: str):
            calibration = self.calibration_for(
                config, program.frequencies[0], program.m_periods
            )
            measurer = self._measurer(
                used, config, program.m_periods, calibration
            )
            rng = np.random.default_rng(seed)

            def chunk(start: int, stop: int):
                if measurer is None:
                    return execute_device_trial, [
                        DeviceTrialJob(
                            index=i,
                            components=nominal.with_tolerance(
                                component_sigma, rng
                            ),
                            mask=mask,
                            program=program,
                            config=config,
                            calibration=calibration,
                        )
                        for i in range(start, stop)
                    ]
                population = lot_population(
                    nominal.draw_lot(component_sigma, rng, stop - start),
                    config.dut_settle_tolerance,
                    start=start,
                )
                measurer.reserve(population, program.frequencies)
                return partial(
                    vectorized.run_trials_vectorized,
                    population, mask, program, measurer, start,
                ), None

            return chunk

        return self._run_population(
            "engine.trials", {"n_jobs": n_devices}, n_devices, prepare
        )
