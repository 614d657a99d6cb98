"""AnalyzerService end-to-end: streaming, dedupe, cancel, fault tolerance.

The acceptance test of the whole service layer lives here:
``test_streamed_result_is_byte_identical_under_worker_death`` runs a
scenario through the async service with two workers, a nonzero chunk
size and one injected mid-job worker death, and requires the streamed,
reassembled result to serialize byte-identically to a synchronous
:meth:`~repro.api.session.Session.run_scenario` of the same spec.
"""

import asyncio

import pytest

from repro.api import ExecutionPolicy, Session
from repro.errors import ServiceError
from repro.reporting.export import baseline_to_json
from repro.scenarios import (
    AnalyzerSettings,
    CoverageStep,
    DiagnoseStep,
    ScenarioSpec,
    SweepStep,
)
from repro.service import AnalyzerService, policy_for_spec, result_from_frames

SMALL = AnalyzerSettings(m_periods=20)
#: Two workers, shards of three: the acceptance execution strategy.
POLICY = ExecutionPolicy(backend="vectorized", n_workers=2, chunk_size=3)


def small_spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        name="service_e2e",
        analyzer=SMALL,
        steps=(
            SweepStep(name="bode", f_start=400.0, f_stop=2500.0, n_points=5),
            CoverageStep(name="cov", deviations=(0.5,)),  # 10 faults + good
        ),
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def sync_baseline(spec: ScenarioSpec, policy: ExecutionPolicy) -> str:
    with Session(policy=policy) as session:
        return baseline_to_json(spec, session.run_scenario(spec).raw)


class TestStreamedByteIdentity:
    def test_streamed_result_is_byte_identical_under_worker_death(self):
        """The tentpole acceptance: shard, stream, kill a worker — same bytes."""
        spec = small_spec()

        async def scenario():
            service = AnalyzerService(max_running=1, chaos_kill_shard=2)
            job = service.submit(spec, POLICY)
            frames = []
            stream = service.subscribe(job)
            while True:
                frame = await stream.get()
                if frame is None:
                    break
                frames.append(frame)
            result = await job.result()
            return service, job, frames, result

        service, job, frames, result = asyncio.run(scenario())

        # A worker genuinely died and its shard was retried.
        snapshot = service.metrics.snapshot()
        assert snapshot["service.worker_deaths"]["value"] == 1
        assert snapshot["service.retries"]["value"] == 1

        # The streamed frames reassemble to the same result object...
        assert result_from_frames(frames) == result
        # ...which serializes byte-identically to the synchronous run.
        assert baseline_to_json(spec, result) == sync_baseline(spec, POLICY)
        assert job.state == "done"

    def test_stream_frame_order_is_the_lifecycle(self):
        spec = small_spec()

        async def scenario():
            service = AnalyzerService()
            job = service.submit(spec, POLICY)
            stream = service.subscribe(job)
            frames = []
            while True:
                frame = await stream.get()
                if frame is None:
                    return frames
                frames.append(frame)

        frames = asyncio.run(scenario())
        kinds = [f["type"] for f in frames]
        assert kinds == ["state", "state", "step", "step", "state", "result"]
        states = [f["state"] for f in frames if f["type"] == "state"]
        assert states == ["running", "streaming", "done"]
        assert [f["index"] for f in frames if f["type"] == "step"] == [0, 1]


class TestSchedulingSemantics:
    def test_in_flight_dedupe_shares_one_job(self):
        spec = small_spec()

        async def scenario():
            service = AnalyzerService(max_running=1)
            first = service.submit(spec, POLICY)
            second = service.submit(spec, POLICY)
            assert second is first
            result = await first.result()
            # After completion a resubmission is fresh work again.
            third = service.submit(spec, POLICY)
            assert third is not first
            await third.result()
            return service, result

        service, result = asyncio.run(scenario())
        snapshot = service.metrics.snapshot()
        assert snapshot["service.jobs.submitted"]["value"] == 2
        assert snapshot["service.jobs.deduped"]["value"] == 1
        assert snapshot["service.jobs.completed"]["value"] == 2

    def test_different_policies_do_not_dedupe(self):
        spec = small_spec()

        async def scenario():
            service = AnalyzerService(max_running=2)
            a = service.submit(spec, POLICY)
            b = service.submit(spec, POLICY.replace(chunk_size=4))
            assert a is not b
            return await asyncio.gather(a.result(), b.result())

        first, second = asyncio.run(scenario())
        assert baseline_to_json(spec, first) == baseline_to_json(spec, second)

    def test_cancel_queued_job_never_runs(self):
        blocker = small_spec()
        victim = small_spec(name="victim")

        async def scenario():
            service = AnalyzerService(max_running=1)
            running = service.submit(blocker, POLICY)
            queued = service.submit(victim, POLICY)
            assert queued.state == "queued"
            service.cancel(queued.job_id)
            assert queued.state == "cancelled"
            with pytest.raises(ServiceError, match="cancelled"):
                await queued.result()
            await running.result()
            return service

        service = asyncio.run(scenario())
        snapshot = service.metrics.snapshot()
        assert snapshot["service.jobs.cancelled"]["value"] == 1
        assert snapshot["service.jobs.completed"]["value"] == 1

    def test_cancel_running_job_stops_at_a_step_boundary(self):
        spec = small_spec(
            steps=tuple(
                SweepStep(name=f"s{i}", f_start=400.0, f_stop=2500.0,
                          n_points=2)
                for i in range(4)
            ),
        )

        async def scenario():
            service = AnalyzerService(max_running=1)
            job = service.submit(spec, POLICY)
            stream = service.subscribe(job)
            while True:
                frame = await stream.get()
                if frame is not None and frame["type"] == "step":
                    service.cancel(job.job_id)
                    break
            with pytest.raises(ServiceError, match="cancelled"):
                await job.result()
            return job

        job = asyncio.run(scenario())
        assert job.state == "cancelled"
        assert "cancelled after" in (job.error or "")
        # The cancellation left fewer step frames than the spec has steps.
        steps_seen = [f for f in job.frames if f["type"] == "step"]
        assert 0 < len(steps_seen) < 4

    def test_compile_failure_fails_the_job(self):
        bad = small_spec(
            steps=(
                DiagnoseStep(name="diag", inject="not-a-fault"),
            ),
        )

        async def scenario():
            service = AnalyzerService()
            job = service.submit(bad, POLICY)
            with pytest.raises(ServiceError, match="not-a-fault"):
                await job.result()
            return service, job

        service, job = asyncio.run(scenario())
        assert job.state == "failed"
        assert job.frames[-1]["type"] == "error"
        snapshot = service.metrics.snapshot()
        assert snapshot["service.jobs.failed"]["value"] == 1

    def test_unexpected_exception_fails_the_job_and_frees_its_slots(
        self, monkeypatch
    ):
        """A non-ReproError must not wedge a one-slot service."""
        import repro.service.service as service_module

        spec = small_spec(
            steps=(SweepStep(name="bode", f_start=400.0, f_stop=2500.0, n_points=2),),
        )
        real_compile = service_module.compile_scenario
        calls = []

        def compile_once_broken(job_spec):
            calls.append(job_spec)
            if len(calls) == 1:
                return 1 / 0
            return real_compile(job_spec)

        monkeypatch.setattr(service_module, "compile_scenario", compile_once_broken)

        async def drain(stream):
            frames = []
            while (frame := await stream.get()) is not None:
                frames.append(frame)
            return frames

        async def scenario():
            service = AnalyzerService(max_running=1)
            broken = service.submit(spec, POLICY)
            # A wedged job never ends its stream: fail, do not hang.
            frames = await asyncio.wait_for(
                drain(service.subscribe(broken)), timeout=60
            )
            running_after = service.queue.n_running
            retry = service.submit(spec, POLICY)
            result = await asyncio.wait_for(retry.result(), timeout=60)
            return broken, frames, running_after, retry, result

        broken, frames, running_after, retry, result = asyncio.run(scenario())
        assert broken.state == "failed"
        assert frames[-1]["type"] == "error"
        assert "ZeroDivisionError" in frames[-1]["message"]
        assert running_after == 0
        assert retry is not broken
        assert retry.state == "done"
        assert [step.name for step in result.steps] == ["bode"]

    def test_status_snapshot_reports_queue_cache_and_metrics(self):
        spec = small_spec()

        async def scenario():
            service = AnalyzerService(max_running=2)
            await service.run_scenario(spec, POLICY)
            return service.status()

        status = asyncio.run(scenario())
        assert status["jobs"]["done"] == 1
        assert status["max_running"] == 2
        assert status["cache"]["misses"] >= 1
        assert status["metrics"]["service.jobs.completed"]["value"] == 1

    def test_default_policy_is_the_specs_own(self):
        spec = small_spec(backend="vectorized", n_workers=2, chunk_size=4)
        policy = policy_for_spec(spec)
        assert policy == ExecutionPolicy(
            backend="vectorized", n_workers=2, seed=spec.seed, chunk_size=4
        )

        async def scenario():
            service = AnalyzerService()
            return await service.run_scenario(spec)

        result = asyncio.run(scenario())
        assert baseline_to_json(spec, result) == sync_baseline(spec, policy)

    def test_calibration_is_shared_across_jobs(self):
        """Job 2 at the same configuration hits job 1's calibration."""
        spec = small_spec(
            steps=(
                SweepStep(name="bode", f_start=400.0, f_stop=2500.0,
                          n_points=4),
            ),
        )

        async def scenario():
            service = AnalyzerService(max_running=1)
            await service.run_scenario(spec, POLICY)
            misses_after_first = service.cache.misses
            await service.run_scenario(spec, POLICY)
            return misses_after_first, service.cache

        misses_after_first, cache = asyncio.run(scenario())
        assert cache.misses == misses_after_first  # all hits on the rerun
        assert cache.hits > 0
