"""The service's worker pool: retrying threads that run engine chunks.

The engine already made sharding *safe*: per-job seed substreams are
indexed by each job's **absolute** lot position
(:mod:`repro.engine.seeding`), so a population batch produces the same
numbers no matter where it is split or who executes the pieces.  The
engine's one dispatcher
(:meth:`~repro.engine.runner.BatchRunner._run_population`) cuts every
batch into chunks; a runner built with ``pool=`` hands each chunk to a
pool as a pure task, keeps at most ``n_workers`` of them in flight and
reassembles the results in job order.

:class:`WorkerPool` is that pool for the service: one per
:class:`~repro.service.service.AnalyzerService`, shared by all its
jobs.  A worker that dies (:class:`WorkerDied`) takes nothing with it:
the pool re-enqueues the dead worker's task, spawns a replacement
thread, and the retry re-derives the same absolute-index substreams —
the re-run is bit-identical.  Any other exception fails that task (and
so its job), never the pool.  Tasks, deaths and retries are counted in
the pool's :class:`~repro.obs.MetricRegistry` (``service.shards``,
``service.worker_deaths``, ``service.retries``).
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Any, Callable

from ..errors import ConfigError, ServiceError
from ..obs.metrics import MetricRegistry

#: A chunk task: reads its chunk's inputs, returns its results.
ShardTask = Callable[[], Any]


class WorkerDied(ServiceError):
    """A worker thread died mid-task (injected or real).

    Raising this inside a task makes the executing worker thread
    genuinely exit; the pool detects the death, re-enqueues the task
    and spawns a replacement thread.
    """


#: Sentinel telling a worker thread to exit cleanly.
_STOP: Any = object()


class WorkerPool:
    """Retrying worker threads that run chunk tasks, results as futures.

    Parameters
    ----------
    n_workers:
        Worker threads.  Threads (not processes) because the vectorized
        backend releases the GIL inside its NumPy kernels and — more
        importantly — because every task must share its batch's *one*
        calibration and :class:`~repro.engine.vectorized.PopulationMeasurer`.
    metrics:
        Registry for ``service.shards`` / ``service.worker_deaths`` /
        ``service.retries``; a private one is created when omitted.
    max_retries:
        How many times one task may be re-enqueued after worker deaths
        before the pool gives up and fails the task with a
        :class:`~repro.errors.ServiceError`.
    chaos_kill_shard:
        Deterministic fault injection: the ``k``-th task to start on
        this pool (1-based, counted over the pool's lifetime, retries
        included) raises :class:`WorkerDied` instead of running,
        killing its worker thread.  The retry then proves the
        bit-identity contract under real mid-job failure.
    """

    _lock_guarded = ("_threads", "_closed", "_started")

    def __init__(
        self,
        n_workers: int,
        *,
        metrics: MetricRegistry | None = None,
        max_retries: int = 2,
        chaos_kill_shard: int | None = None,
    ) -> None:
        if (
            not isinstance(n_workers, int)
            or isinstance(n_workers, bool)
            or n_workers < 1
        ):
            raise ConfigError(
                f"pool: n_workers must be an integer >= 1, got {n_workers!r}"
            )
        if not isinstance(max_retries, int) or max_retries < 0:
            raise ConfigError(
                f"pool: max_retries must be an integer >= 0, "
                f"got {max_retries!r}"
            )
        if chaos_kill_shard is not None and (
            not isinstance(chaos_kill_shard, int)
            or isinstance(chaos_kill_shard, bool)
            or chaos_kill_shard < 1
        ):
            raise ConfigError(
                f"chaos_kill_shard must be an integer >= 1 or None, "
                f"got {chaos_kill_shard!r}"
            )
        self.n_workers = n_workers
        self.max_retries = max_retries
        self.chaos_kill_shard = chaos_kill_shard
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self._shards = self.metrics.counter("service.shards")
        self._deaths = self.metrics.counter("service.worker_deaths")
        self._retries = self.metrics.counter("service.retries")
        self._tasks: queue.Queue[Any] = queue.Queue()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._closed = False
        self._started = 0
        for _ in range(n_workers):
            self._spawn()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        thread = threading.Thread(target=self._worker_loop, daemon=True)
        with self._lock:
            if self._closed:
                return
            self._threads.append(thread)
        thread.start()

    def _worker_loop(self) -> None:
        while True:
            item = self._tasks.get()
            if item is _STOP:
                return
            task, future, attempt = item
            try:
                self._maybe_chaos()
                future.set_result(task())
            except WorkerDied as death:
                # The whole point: this thread genuinely exits.  The
                # task is re-enqueued and a replacement spawned; the
                # retry re-derives the same absolute-index substreams,
                # so the re-run is bit-identical.
                self._on_death(task, future, attempt, death)
                return
            except Exception as error:  # noqa: BLE001 — fail the task, not the pool
                future.set_exception(error)

    def _maybe_chaos(self) -> None:
        """Kill the armed task (runs on the worker thread)."""
        if self.chaos_kill_shard is None:
            return
        with self._lock:
            self._started += 1
            started = self._started
        if started == self.chaos_kill_shard:
            raise WorkerDied(
                f"chaos injection: shard task #{started} killed its worker"
            )

    def _on_death(
        self,
        task: ShardTask,
        future: "Future[Any]",
        attempt: int,
        death: WorkerDied,
    ) -> None:
        self._deaths.inc()
        if attempt >= self.max_retries:
            future.set_exception(
                ServiceError(
                    f"shard failed after {attempt + 1} attempt(s) "
                    f"({self.max_retries} retries allowed): {death}"
                )
            )
            return
        self._retries.inc()
        self._tasks.put((task, future, attempt + 1))
        self._spawn()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def submit(self, task: ShardTask) -> "Future[Any]":
        """Queue one task; its future settles with the result or error."""
        future: Future[Any] = Future()
        with self._lock:
            if self._closed:
                raise ServiceError("worker pool is closed")
            self._tasks.put((task, future, 0))
        self._shards.inc()
        return future

    @property
    def worker_deaths(self) -> int:
        return self._deaths.value

    @property
    def retries(self) -> int:
        return self._retries.value

    def close(self) -> None:
        """Stop every worker (idempotent); queued tasks drain first."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads = list(self._threads)
        for _ in threads:
            self._tasks.put(_STOP)
        for thread in threads:
            thread.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
