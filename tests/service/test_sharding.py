"""The shared worker pool: chunk planning, fault tolerance, byte-identity.

The heart of the service determinism contract: a runner whose chunks run
on a :class:`~repro.service.WorkerPool` must produce *the same objects*
as an inline runner — sweeps, fault campaigns, pseudorandom campaigns
and yield lots, on both backends, at any chunk size — and a worker death
mid-chunk must not change a single bit of the answer.  The pool is
shared by every job of a service, so it must also bound each batch's
chunks in flight and survive any one job's failure.
"""

import asyncio
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import ExecutionPolicy, Session
from repro.bist.limits import SpecMask
from repro.bist.program import BISTProgram
from repro.core.config import AnalyzerConfig
from repro.dut.active_rc import ActiveRCLowpass, design_mfb_lowpass
from repro.dut.faults import fault_catalog
from repro.engine import runner as runner_module
from repro.errors import ConfigError, ServiceError
from repro.obs import TraceRecorder, diff_traces
from repro.prbist.misr import MISRConfig
from repro.reporting.export import baseline_to_json
from repro.sc.opamp import OpAmpModel
from repro.scenarios import AnalyzerSettings, ScenarioSpec, SweepStep
from repro.service import AnalyzerService, WorkerDied, WorkerPool

DUT = ActiveRCLowpass.from_specs(cutoff=1000.0)
#: A *noisy* config, so per-job seed substreams actually matter: if a
#: chunk ran at the wrong absolute index, the noise draws would differ.
CONFIG = AnalyzerConfig.ideal(
    m_periods=20,
    evaluator_opamp=OpAmpModel(noise_rms=1e-3),
    noise_seed=11,
)
FREQS = [400.0, 700.0, 1000.0, 1500.0, 2200.0, 3000.0, 4200.0]
FAULTY = [f.apply(DUT) for f in fault_catalog([-0.5, 0.5])]
NOMINAL = design_mfb_lowpass(1000.0)
LOT_PROBES = (300.0, 1000.0, 2000.0)
MASK = SpecMask.from_golden(ActiveRCLowpass(NOMINAL), LOT_PROBES, tolerance_db=2.0)
PROGRAM = BISTProgram(MASK, LOT_PROBES, m_periods=20)
LOT_DEVICES = 9

#: One batch of each population workload: ``run(runner) -> results``.
WORKLOADS = {
    "sweep": lambda runner: runner.run_sweep(DUT, CONFIG, FREQS),
    "fault": lambda runner: runner.run_fault_trials(
        FAULTY, CONFIG, (700.0, 1400.0)
    ),
    "prbist": lambda runner: runner.run_pseudorandom_trials(
        FAULTY, CONFIG, (500.0, 1200.0, 2100.0), MISRConfig(width=8)
    ),
    "yield": lambda runner: runner.run_trials(
        NOMINAL, MASK, PROGRAM, n_devices=LOT_DEVICES,
        component_sigma=0.06, seed=5, config=CONFIG,
    ),
}


def wait_for_width(pool: WorkerPool, width: int) -> None:
    """``width`` tasks that each wait for all the others: they finish
    only if the pool runs ``width`` of them at once."""
    barrier = threading.Barrier(width, timeout=30)
    futures = [pool.submit(barrier.wait) for _ in range(width)]
    assert sorted(f.result(timeout=60) for f in futures) == list(range(width))


class CountingPool:
    """A test executor: counts each batch's outstanding chunks."""

    def __init__(self, threads: int) -> None:
        self._executor = ThreadPoolExecutor(max_workers=threads)
        self._lock = threading.Lock()
        self.outstanding = 0
        self.peak = 0
        self.submitted = 0

    def submit(self, task):
        def run():
            time.sleep(0.01)  # let the dispatcher race ahead if it could
            return task()

        with self._lock:
            self.outstanding += 1
            self.submitted += 1
            self.peak = max(self.peak, self.outstanding)
        future = self._executor.submit(run)
        future.add_done_callback(self._done)
        return future

    def _done(self, _future) -> None:
        with self._lock:
            self.outstanding -= 1

    def close(self) -> None:
        self._executor.shutdown(wait=True)


class TestPlanShards:
    """A pooled batch is cut into the engine's own chunks, one task each."""

    POLICY = ExecutionPolicy(backend="vectorized", n_workers=2)

    def shards_for(self, n: int, chunk_size) -> tuple[int, list]:
        recorder = TraceRecorder()
        pool = WorkerPool(2)
        try:
            runner = self.POLICY.replace(chunk_size=chunk_size).build_runner(
                pool=pool, obs=recorder
            )
            runner.run_sweep(DUT, CONFIG, FREQS[:n])
        finally:
            pool.close()
        chunks = [
            (s["exact"]["start"], s["exact"]["start"] + s["exact"]["n_jobs"])
            for s in recorder.trace().spans
            if s["kind"] == "engine.chunk"
        ]
        return pool.metrics.snapshot()["service.shards"]["value"], chunks

    def test_single_shard_when_unchunked(self):
        assert self.shards_for(7, None) == (1, [])

    def test_single_shard_when_chunk_covers_the_batch(self):
        assert self.shards_for(4, 9) == (1, [(0, 4)])

    def test_mirrors_the_engine_chunk_bounds(self):
        for n in (1, 2, 3, 7):
            inline = self.POLICY.replace(chunk_size=3).build_runner()
            shards, chunks = self.shards_for(n, 3)
            assert chunks == inline._chunk_bounds(n)
            assert shards == len(chunks)


class TestWorkerPool:
    def test_results_come_back_in_task_order(self):
        pool = WorkerPool(3)
        try:
            futures = [pool.submit(lambda k=k: k * 10) for k in range(8)]
            assert [f.result() for f in futures] == [k * 10 for k in range(8)]
        finally:
            pool.close()

    def test_worker_death_reenqueues_and_respawns(self):
        pool = WorkerPool(2)
        died = threading.Lock()
        state = {"deaths": 0}

        def flaky():
            with died:
                if state["deaths"] == 0:
                    state["deaths"] += 1
                    raise WorkerDied("injected")
            return "survived"

        try:
            assert pool.submit(flaky).result() == "survived"
            assert pool.worker_deaths == 1
            assert pool.retries == 1
            # The replacement thread keeps the pool at full strength.
            wait_for_width(pool, 2)
        finally:
            pool.close()

    def test_retry_budget_exhaustion_fails_the_shard(self):
        pool = WorkerPool(1, max_retries=1)

        def always_dies():
            raise WorkerDied("hopeless")

        try:
            with pytest.raises(ServiceError, match="2 attempt"):
                pool.submit(always_dies).result()
            assert pool.worker_deaths == 2  # initial + one retry
            assert pool.retries == 1
        finally:
            pool.close()

    def test_ordinary_exceptions_fail_the_shard_not_the_pool(self):
        pool = WorkerPool(1)

        def broken():
            raise ConfigError("bad shard arguments")

        try:
            with pytest.raises(ConfigError, match="bad shard arguments"):
                pool.submit(broken).result()
            # The worker thread survived an ordinary failure.
            assert pool.submit(lambda: "alive").result() == "alive"
            assert pool.worker_deaths == 0
        finally:
            pool.close()

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ServiceError, match="closed"):
            pool.submit(lambda: 1)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True])
    def test_bad_worker_count_rejected(self, bad):
        with pytest.raises(ConfigError, match="n_workers"):
            WorkerPool(bad)


class TestShardingRunnerByteIdentity:
    """A runner sharding over the pool ≡ an inline runner, object for object."""

    POLICY = ExecutionPolicy(backend="reference", n_workers=2, chunk_size=3)

    def _pair(self, chaos_kill_shard=None):
        plain = self.POLICY.replace(n_workers=1).build_runner()
        pool = WorkerPool(2, chaos_kill_shard=chaos_kill_shard)
        return plain, self.POLICY.build_runner(pool=pool), pool

    def _check(self, workload: str, chaos_kill_shard=None) -> WorkerPool:
        plain, sharded, pool = self._pair(chaos_kill_shard)
        try:
            assert WORKLOADS[workload](sharded) == WORKLOADS[workload](plain)
        finally:
            pool.close()
        return pool

    def test_sweep_matches(self):
        self._check("sweep")

    def test_fault_trials_match(self):
        self._check("fault")

    def test_pseudorandom_trials_match(self):
        self._check("prbist")

    def test_worker_death_replays_the_shard_bit_identically(self):
        pool = self._check("sweep", chaos_kill_shard=2)
        assert pool.worker_deaths == 1
        assert pool.retries == 1

    def test_without_a_pool_it_is_a_plain_runner(self):
        solo = self.POLICY.build_runner()
        assert solo.pool is None
        plain = self.POLICY.replace(n_workers=1).build_runner()
        assert solo.run_sweep(DUT, CONFIG, FREQS) == plain.run_sweep(
            DUT, CONFIG, FREQS
        )

    def test_shard_metrics_and_stats_are_recorded(self):
        pool = WorkerPool(2)
        sharded = self.POLICY.build_runner(pool=pool)
        try:
            sharded.run_sweep(DUT, CONFIG, FREQS)
            # 7 frequencies / chunk_size 3 -> 3 shards
            assert pool.metrics.snapshot()["service.shards"]["value"] == 3
            stats = sharded.last_stats
            assert stats is not None
            assert stats.n_jobs == len(FREQS)
            assert stats.n_workers == 2
        finally:
            pool.close()

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True])
    def test_bad_chaos_shard_rejected(self, bad):
        with pytest.raises(ConfigError, match="chaos_kill_shard"):
            WorkerPool(1, chaos_kill_shard=bad)


class TestPoolExecutor:
    """Every population workload, both backends, any chunk size."""

    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_pooled_batch_matches_inline(self, workload, backend, chunk_size):
        policy = ExecutionPolicy(
            backend=backend, n_workers=2, chunk_size=chunk_size
        )
        inline = WORKLOADS[workload](policy.replace(n_workers=1).build_runner())
        pool = WorkerPool(2)
        try:
            pooled = WORKLOADS[workload](policy.build_runner(pool=pool))
        finally:
            pool.close()
        assert pooled == inline

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_worker_death_in_a_yield_lot_replays_bit_identically(self, backend):
        policy = ExecutionPolicy(backend=backend, n_workers=2, chunk_size=2)
        inline = WORKLOADS["yield"](policy.replace(n_workers=1).build_runner())
        pool = WorkerPool(2, chaos_kill_shard=3)
        try:
            assert WORKLOADS["yield"](policy.build_runner(pool=pool)) == inline
        finally:
            pool.close()
        assert (pool.worker_deaths, pool.retries) == (1, 1)

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_concurrent_chunks_under_fast_thread_switching(self, backend):
        """More threads than cores, switching every microsecond: chunks
        share the batch's measurer (its stimulus render grows as each
        ascending sweep chunk is reserved) and the sweep's device, and
        a lost or torn update would change a measurement."""
        points = [300.0 * 1.25**k for k in range(12)]
        policy = ExecutionPolicy(backend=backend, n_workers=6, chunk_size=1)
        inline = policy.replace(n_workers=1).build_runner().run_sweep(
            DUT, CONFIG, points
        )
        pool = WorkerPool(6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = policy.build_runner(pool=pool).run_sweep(DUT, CONFIG, points)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert pooled == inline

    @pytest.mark.parametrize("workload", ["yield", "fault"])
    def test_at_most_n_workers_chunks_in_flight(self, workload):
        policy = ExecutionPolicy(backend="vectorized", n_workers=2, chunk_size=1)
        counting = CountingPool(threads=8)
        try:
            WORKLOADS[workload](policy.build_runner(pool=counting))
        finally:
            counting.close()
        assert counting.submitted > policy.n_workers
        assert counting.peak == policy.n_workers

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_trace_exact_channel_matches_inline(self, backend):
        policy = ExecutionPolicy(backend=backend, n_workers=2, chunk_size=3)

        def trace(pool):
            recorder = TraceRecorder()
            runner = policy.build_runner(obs=recorder, pool=pool)
            for name in sorted(WORKLOADS):
                WORKLOADS[name](runner)
            runner.run_distortion(DUT, CONFIG, [500.0, 900.0], m_periods=20)
            return recorder.trace()

        inline = trace(None)
        pool = WorkerPool(2)
        try:
            pooled = trace(pool)
        finally:
            pool.close()
        report = diff_traces(inline, pooled)
        assert report.ok, report.report()

    @pytest.mark.parametrize(
        "backend,run,used",
        [
            ("vectorized", WORKLOADS["yield"], "vectorized"),
            ("reference", WORKLOADS["fault"], "reference"),
            (
                "vectorized",
                lambda r: r.run_distortion(DUT, CONFIG, [500.0], m_periods=20),
                "reference",
            ),
        ],
    )
    def test_pooled_batches_are_accounted_like_inline_ones(
        self, backend, run, used
    ):
        policy = ExecutionPolicy(backend=backend, n_workers=2, chunk_size=2)
        pool = WorkerPool(2)
        try:
            runners = [
                policy.replace(n_workers=1).build_runner(),
                policy.build_runner(pool=pool),
            ]
            for runner in runners:
                run(runner)
        finally:
            pool.close()
        snapshots = [runner.metrics.snapshot() for runner in runners]
        for name in ("engine.batches", "engine.jobs", "engine.fallbacks"):
            assert snapshots[0][name] == snapshots[1][name], name
        assert snapshots[1]["engine.batches"]["value"] == 1
        for runner in runners:
            assert runner.last_stats.backend == used
        assert runners[0].last_stats.n_jobs == runners[1].last_stats.n_jobs


class TestSharedServicePool:
    """One pool serves every job; one job's failure stays its own."""

    POLICY = ExecutionPolicy(backend="reference", n_workers=2, chunk_size=2)
    #: Sweep points of the victim job lie above this frequency, and the
    #: chunk holding its point 3 raises an ordinary exception.
    POISONED_ABOVE = 4000.0

    @staticmethod
    def spec(name: str, f_start: float, f_stop: float) -> ScenarioSpec:
        return ScenarioSpec(
            name=name,
            analyzer=AnalyzerSettings(m_periods=20),
            steps=(
                SweepStep(name="bode", f_start=f_start, f_stop=f_stop, n_points=5),
            ),
        )

    def test_a_failed_chunk_fails_only_its_job(self, monkeypatch):
        execute = runner_module.execute_sweep_point

        def poisoned(job):
            if job.fwave > self.POISONED_ABOVE and job.index == 3:
                raise RuntimeError("poisoned chunk")
            return execute(job)

        monkeypatch.setattr(runner_module, "execute_sweep_point", poisoned)
        victim = self.spec("victim", 5000.0, 8000.0)
        healthy = self.spec("healthy", 400.0, 3000.0)
        later = self.spec("later", 500.0, 2500.0)

        async def scenario():
            service = AnalyzerService(max_running=2)
            try:
                a = service.submit(victim, self.POLICY)
                b = service.submit(healthy, self.POLICY)
                results = await asyncio.gather(
                    a.result(), b.result(), return_exceptions=True
                )
                after = await service.run_scenario(later, self.POLICY)
                await asyncio.get_running_loop().run_in_executor(
                    None, wait_for_width, service.pool, service.pool.n_workers
                )
                return service, a, b, results, after
            finally:
                service.close()

        service, a, b, results, after = asyncio.run(scenario())
        assert a.state == "failed"
        assert "poisoned chunk" in a.error
        assert isinstance(results[0], ServiceError)
        assert b.state == "done"
        for spec, streamed in ((healthy, results[1]), (later, after)):
            # Serial, so the patched job function needs no pickling.
            with Session(policy=self.POLICY.replace(n_workers=1)) as session:
                sync = session.run_scenario(spec).raw
            assert baseline_to_json(spec, streamed) == baseline_to_json(spec, sync)
        assert service.metrics.snapshot()["service.worker_deaths"]["value"] == 0
