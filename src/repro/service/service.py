"""The analyzer service: an asyncio scheduler over one shared Session path.

:class:`AnalyzerService` is the in-process core of analyzer-as-a-service
(the TCP front end lives in :mod:`repro.service.server`).  It accepts
``(ScenarioSpec, ExecutionPolicy)`` submissions, schedules them through
a :class:`~repro.service.queue.JobQueue` (priorities, bounded
concurrency, in-flight content dedupe) and executes each job through the
*same* path a synchronous caller uses: ``compile_scenario`` →
:class:`~repro.api.session.Session` methods — on a runner built by the
job's own policy, whose population chunks run on the service's one
:class:`~repro.service.sharding.WorkerPool`.  Because per-job seed
substreams are indexed by absolute lot position, the service's answer
is byte-identical to :meth:`~repro.api.session.Session.run_scenario` —
including after a worker death and retry.

One event loop, one thread: all service state (queue, jobs, subscriber
lists) is touched only from the loop thread, so the scheduler needs no
locks.  Blocking work — step execution — runs in the loop's default
executor, which dispatches the step's chunks to the worker pool; worker
threads communicate exclusively through return values.

Every job shares the service-wide
:class:`~repro.engine.cache.CalibrationCache` (a calibration acquired
for job 1 is a hit for job 2 at the same configuration), the worker
pool (``default_workers()`` threads, built once and closed by
:meth:`AnalyzerService.close`) and one
:class:`~repro.obs.MetricRegistry` holding the ``service.*`` counters:
``service.jobs.submitted`` / ``deduped`` / ``completed`` / ``failed`` /
``cancelled``, ``service.shards``, ``service.worker_deaths`` and
``service.retries``.  :meth:`AnalyzerService.status` snapshots all of it
for the ``status`` endpoint.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from ..api.policy import ExecutionPolicy, Recorder
from ..api.session import Session
from ..engine.runner import default_workers
from ..errors import ReproError
from ..obs.metrics import MetricRegistry
from ..obs.recorder import default_recorder
from ..scenarios.compiler import CompiledStep, compile_scenario
from ..scenarios.result import ScenarioResult, StepResult
from .jobs import Job
from .queue import JobQueue
from .sharding import WorkerPool
from .wire import error_frame, result_frame, state_frame, step_frame

if TYPE_CHECKING:
    from ..scenarios.spec import ScenarioSpec


def policy_for_spec(spec: "ScenarioSpec") -> ExecutionPolicy:
    """The policy a submission defaults to: the spec's own execution fields.

    Mirrors what :meth:`~repro.scenarios.compiler.CompiledScenario.run`
    does when called without overrides, so submitting a spec with no
    policy runs it exactly as ``repro scenarios run`` would.
    """
    return ExecutionPolicy(
        backend=spec.backend,
        n_workers=spec.n_workers,
        seed=spec.seed,
        chunk_size=spec.chunk_size,
    )


class AnalyzerService:
    """Async job scheduler executing scenarios on shared engine resources.

    Parameters
    ----------
    max_running:
        Jobs executing concurrently; further submissions wait ``queued``.
    cache_max_entries:
        LRU bound of the service-wide calibration cache (defaults to the
        :class:`~repro.api.policy.ExecutionPolicy` default).
    obs:
        Trace recorder for ``service.*`` spans (process default when
        omitted).
    metrics:
        Service-wide registry; a private one is created when omitted.
    chaos_kill_shard:
        Deterministic fault injection: the ``k``-th chunk task the
        service's worker pool starts raises
        :class:`~repro.service.sharding.WorkerDied`, killing a worker
        mid-job.  One-shot — the harness knob behind the retry
        bit-identity tests; see :class:`~repro.service.sharding.WorkerPool`.

    Must be constructed and driven from a running event loop (its jobs
    carry :class:`asyncio.Event` completion latches).  :meth:`close`
    stops the worker pool (the server does so in
    :meth:`~repro.service.server.AnalyzerServer.aclose`).
    """

    def __init__(
        self,
        *,
        max_running: int = 2,
        cache_max_entries: int | None = None,
        obs: Recorder | None = None,
        metrics: MetricRegistry | None = None,
        chaos_kill_shard: int | None = None,
    ) -> None:
        self.obs = obs if obs is not None else default_recorder()
        self.metrics = metrics if metrics is not None else MetricRegistry()
        base = ExecutionPolicy() if cache_max_entries is None else (
            ExecutionPolicy(cache_max_entries=cache_max_entries)
        )
        self.cache = base.build_cache(obs=self.obs, metrics=self.metrics)
        self.queue = JobQueue(max_running=max_running)
        self.obs.attach_metrics(self.metrics)
        self.pool = WorkerPool(
            default_workers(),
            metrics=self.metrics,
            chaos_kill_shard=chaos_kill_shard,
        )
        self._sequence = 0
        self._tasks: set[asyncio.Task] = set()
        self._subscribers: dict[str, list[asyncio.Queue]] = {}
        self._submitted = self.metrics.counter("service.jobs.submitted")
        self._deduped = self.metrics.counter("service.jobs.deduped")
        self._completed = self.metrics.counter("service.jobs.completed")
        self._failed = self.metrics.counter("service.jobs.failed")
        self._cancelled = self.metrics.counter("service.jobs.cancelled")

    # ------------------------------------------------------------------
    # Intake (loop thread only)
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: "ScenarioSpec",
        policy: ExecutionPolicy | None = None,
        priority: int = 0,
    ) -> Job:
        """Enqueue a scenario; the (possibly deduped) tracked job.

        An in-flight job with the same ``(spec_key, policy_key)`` content
        is returned instead of enqueueing duplicate work — check
        ``job.frames`` / :meth:`subscribe` to catch up on its stream.
        """
        job, _ = self.submit_job(spec, policy=policy, priority=priority)
        return job

    def submit_job(
        self,
        spec: "ScenarioSpec",
        policy: ExecutionPolicy | None = None,
        priority: int = 0,
    ) -> tuple[Job, bool]:
        """:meth:`submit`, also reporting whether the job was deduped."""
        if policy is None:
            policy = policy_for_spec(spec)
        job = Job(self._sequence, spec, policy, priority=priority)
        accepted, deduped = self.queue.submit(job)
        if deduped:
            self._deduped.inc()
            return accepted, True
        self._sequence += 1
        self._submitted.inc()
        self._pump()
        return job, False

    def cancel(self, job_id: str) -> Job:
        """Cancel a job (immediate when queued, at the next step boundary
        when running); the updated job."""
        job = self.queue.cancel(job_id)
        if job.state == "cancelled" and job.error is None:
            # Went terminal right here (it was still queued): account for
            # it and notify; running jobs settle in _run_job instead.
            job.error = "cancelled before it started"
            self._cancelled.inc()
            self._emit(job, state_frame(job))
            self._finish_stream(job)
        return job

    def get(self, job_id: str) -> Job:
        return self.queue.get(job_id)

    # ------------------------------------------------------------------
    # Streaming (loop thread only)
    # ------------------------------------------------------------------
    def subscribe(self, job: Job) -> "asyncio.Queue[dict | None]":
        """A frame queue for ``job``: history replayed, then live frames.

        Frames already emitted (a deduped late subscriber) are preloaded
        in order; ``None`` terminates the stream after the job's last
        frame.
        """
        stream: asyncio.Queue[dict | None] = asyncio.Queue()
        for frame in job.frames:
            stream.put_nowait(frame)
        if job.terminal:
            stream.put_nowait(None)
        else:
            self._subscribers.setdefault(job.job_id, []).append(stream)
        return stream

    def _emit(self, job: Job, frame: dict) -> None:
        job.frames.append(frame)
        for stream in self._subscribers.get(job.job_id, ()):
            stream.put_nowait(frame)

    def _finish_stream(self, job: Job) -> None:
        for stream in self._subscribers.pop(job.job_id, ()):
            stream.put_nowait(None)

    # ------------------------------------------------------------------
    # Scheduling (loop thread only)
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Start queued jobs while capacity remains."""
        while True:
            job = self.queue.next_ready()
            if job is None:
                return
            task = asyncio.get_running_loop().create_task(self._run_job(job))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _run_job(self, job: Job) -> None:
        """Execute one claimed job (already ``running``) to a terminal state."""
        loop = asyncio.get_running_loop()
        self._emit(job, state_frame(job))
        try:
            compiled = compile_scenario(job.spec)
            session = Session(
                runner=job.policy.build_runner(
                    cache=self.cache,
                    obs=self.obs,
                    metrics=self.metrics,
                    pool=self.pool,
                )
            )
            steps: list[StepResult] = []
            for index, compiled_step in enumerate(compiled.steps):
                if job.cancel_requested:
                    job.error = f"cancelled after {index} step(s)"
                    job.advance("cancelled")
                    self._cancelled.inc()
                    self._emit(job, state_frame(job))
                    self._emit(job, error_frame(job.error, job_id=job.job_id))
                    return
                step = await loop.run_in_executor(
                    None, self._execute_step, session, compiled_step
                )
                steps.append(step)
                if job.state == "running":
                    job.advance("streaming")
                    self._emit(job, state_frame(job))
                self._emit(job, step_frame(job.job_id, index, step))
            result = ScenarioResult(
                scenario=job.spec.name,
                backend=session.runner.backend,
                steps=tuple(steps),
            )
            job.scenario_result = result
            job.advance("done")
            self._completed.inc()
            self._emit(job, state_frame(job))
            self._emit(job, result_frame(job.job_id, result))
        except Exception as error:
            # Any failure, expected or not, ends the job: a job left
            # running would hold its capacity and dedupe slots forever.
            job.error = (
                str(error)
                if isinstance(error, ReproError)
                else f"{type(error).__name__}: {error}"
            )
            job.advance("failed")
            self._failed.inc()
            self._emit(job, state_frame(job))
            self._emit(job, error_frame(job.error, job_id=job.job_id))
        finally:
            self.queue.finish(job)
            self._finish_stream(job)
            self._pump()

    def _execute_step(
        self, session: Session, compiled: CompiledStep
    ) -> StepResult:
        """One step, on an executor thread (its span is a thread root)."""
        with self.obs.span(
            compiled.step.name,
            kind="service.step",
            exact={"step_kind": compiled.step.kind, "n_jobs": compiled.n_jobs},
        ) as span:
            step = compiled.execute(session)
            span.annotate(headline=step.headline())
        return step

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def status(self) -> dict:
        """A canonical-JSON-ready health snapshot.

        Queue depths by state, calibration-cache accounting, and the
        full service metric registry — the payload behind the ``status``
        endpoint and ``repro serve --status``.
        """
        return {
            "jobs": self.queue.depths(),
            "n_running": self.queue.n_running,
            "max_running": self.queue.max_running,
            "cache": {
                "entries": len(self.cache),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "hit_rate": self.cache.hit_rate,
            },
            "metrics": self.metrics.snapshot(),
        }

    async def drain(self) -> None:
        """Wait until every started job reaches a terminal state."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    def close(self) -> None:
        """Stop the worker pool (idempotent); later jobs fail to dispatch."""
        self.pool.close()

    async def run_scenario(
        self,
        spec: "ScenarioSpec",
        policy: ExecutionPolicy | None = None,
        priority: int = 0,
    ) -> ScenarioResult:
        """Submit and await one scenario — the one-call in-process client."""
        job = self.submit(spec, policy=policy, priority=priority)
        return await job.result()
