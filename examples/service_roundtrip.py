"""Analyzer-as-a-service, end to end: submit, stream, survive a crash.

Boots the async service plus its TCP server in-process, replays three of
the committed example scenarios through :class:`ServiceClient`, and
diffs each streamed result against the committed golden baseline — the
same drift check CI applies to synchronous runs.  The fault campaign
and the yield lot run with a deliberately injected worker death: the
killed shard is re-enqueued and re-executed on its original seed
substream (a yield lot's components are drawn before its chunks are
dispatched), so even the crash runs check clean against the recording.

Run with::

    PYTHONPATH=src python examples/service_roundtrip.py
"""

import asyncio
import pathlib

from repro.api import ExecutionPolicy
from repro.scenarios import baseline
from repro.scenarios.result import diff
from repro.service import AnalyzerServer, AnalyzerService, ServiceClient

BASELINES = (
    pathlib.Path(__file__).parent.parent
    / "tests" / "baselines" / "scenarios"
)
#: Sharded two ways across two workers — and still bit-identical.
POLICY = ExecutionPolicy(backend="vectorized", n_workers=2, chunk_size=3)


def replay(name: str, port: int) -> None:
    recorded = baseline.load(BASELINES / f"{name}.json")
    client = ServiceClient(port=port, timeout=120.0)
    frames = list(client.stream(recorded.spec, POLICY))
    kinds = [frame["type"] for frame in frames]
    streamed = client.result(frames[0]["job_id"])
    report = diff(recorded.result, streamed)
    assert report.ok, report.report()
    print(f"  {name:20s} {len(frames)} frames "
          f"({kinds.count('step')} steps) -> {report.report()}")


async def roundtrip(title: str, name: str, **service_kwargs) -> dict:
    service = AnalyzerService(max_running=2, **service_kwargs)
    async with AnalyzerServer(service) as server:
        print(title)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, replay, name, server.port)
        return service.metrics.snapshot()


def main() -> None:
    asyncio.run(roundtrip(
        "clean roundtrip over TCP:", "bode_sweep"
    ))

    # Chaos: the 2nd shard task started gets WorkerDied mid-flight.
    for name in ("fault_coverage", "yield_lot"):
        snapshot = asyncio.run(roundtrip(
            "roundtrip with an injected worker death:", name,
            chaos_kill_shard=2,
        ))
        deaths = snapshot["service.worker_deaths"]["value"]
        retries = snapshot["service.retries"]["value"]
        assert deaths == 1 and retries == 1, snapshot
        print(f"  worker deaths: {deaths}, shard retries: {retries} — "
              f"replayed shard matched the recording bit for bit")


if __name__ == "__main__":
    main()
