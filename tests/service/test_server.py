"""TCP server + client: framing, error recovery, roundtrip byte-identity."""

import asyncio
import json
import socket

import pytest

from repro.api import ExecutionPolicy, Session
from repro.errors import ServiceError
from repro.reporting.export import baseline_to_json
from repro.scenarios import AnalyzerSettings, ScenarioSpec, SweepStep
from repro.service import (
    AnalyzerServer,
    AnalyzerService,
    ServiceClient,
    encode_request,
    result_from_frames,
    status_request,
    submit_request,
)
from repro.service.server import MAX_REQUEST_BYTES

SMALL = AnalyzerSettings(m_periods=20)
POLICY = ExecutionPolicy(backend="vectorized", n_workers=2, chunk_size=2)


def small_spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        name="over_the_wire",
        analyzer=SMALL,
        steps=(SweepStep(name="bode", f_start=500.0, f_stop=2000.0,
                         n_points=5),),
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


async def with_server(fn, **service_kwargs):
    """Boot a server on an ephemeral port, run blocking `fn(port)` off-loop."""
    service = AnalyzerService(**service_kwargs)
    async with AnalyzerServer(service) as server:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, fn, server.port)


def raw_lines(port: int, payloads: list[str]) -> list[dict]:
    """Send raw text lines and read one reply frame per line sent."""
    frames = []
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        stream = sock.makefile("rwb")
        for line in payloads:
            stream.write(line.encode("utf-8") + b"\n")
            stream.flush()
            reply = stream.readline()
            assert reply, f"server hung up after {line!r}"
            frames.append(json.loads(reply.decode("utf-8")))
    return frames


class TestRoundtrip:
    def test_submitted_scenario_matches_the_synchronous_run(self):
        spec = small_spec()

        def go(port: int):
            client = ServiceClient(port=port)
            return client.run_scenario(spec, POLICY)

        streamed = asyncio.run(with_server(go))
        with Session(policy=POLICY) as session:
            sync = session.run_scenario(spec).raw
        assert baseline_to_json(spec, streamed) == baseline_to_json(spec, sync)

    def test_roundtrip_survives_a_worker_death(self):
        spec = small_spec()

        def go(port: int):
            return ServiceClient(port=port).run_scenario(spec, POLICY)

        streamed = asyncio.run(with_server(go, chaos_kill_shard=1))
        with Session(policy=POLICY) as session:
            sync = session.run_scenario(spec).raw
        assert baseline_to_json(spec, streamed) == baseline_to_json(spec, sync)

    def test_stream_yields_ack_then_lifecycle_frames(self):
        spec = small_spec()

        def go(port: int):
            return list(ServiceClient(port=port).stream(spec, POLICY))

        frames = asyncio.run(with_server(go))
        assert frames[0]["type"] == "ack"
        # The scheduler pumps synchronously on submit, so a free slot means
        # the job is already running by the time the ack is framed.
        assert frames[0]["state"] in ("queued", "running")
        assert frames[0]["deduped"] is False
        assert len(frames[0]["spec_key"]) == 64
        assert frames[-1]["type"] == "result"
        kinds = [f["type"] for f in frames]
        assert kinds.count("step") == len(spec.steps)

    def test_result_op_replays_a_finished_job(self):
        spec = small_spec()

        def go(port: int):
            client = ServiceClient(port=port)
            frames = list(client.stream(spec, POLICY))
            job_id = frames[0]["job_id"]
            replayed = client.result(job_id)
            return frames, replayed

        frames, replayed = asyncio.run(with_server(go))
        live = [f for f in frames if f["type"] in ("step", "result")]
        assert replayed == result_from_frames(live)

    def test_status_op_reports_the_service_snapshot(self):
        spec = small_spec()

        def go(port: int):
            client = ServiceClient(port=port)
            client.run_scenario(spec, POLICY)
            return client.status()

        status = asyncio.run(with_server(go))
        assert status["jobs"]["done"] == 1
        assert status["metrics"]["service.jobs.completed"]["value"] == 1


class TestProtocolErrors:
    def test_malformed_json_gets_an_error_frame_not_a_hangup(self):
        spec = small_spec()

        def go(port: int):
            request = encode_request(status_request())
            frames = raw_lines(port, ["{not json", request])
            return frames

        frames = asyncio.run(with_server(go))
        assert frames[0]["type"] == "error"
        assert "JSON" in frames[0]["message"]
        # The connection survived and served the next request.
        assert frames[1]["type"] == "status"

    def test_wrong_format_and_version_are_rejected(self):
        def go(port: int):
            good = json.loads(encode_request(status_request()))
            wrong_format = dict(good, format="something-else")
            wrong_version = dict(good, version=99)
            unknown_op = dict(good, op="explode")
            return raw_lines(port, [
                json.dumps(wrong_format),
                json.dumps(wrong_version),
                json.dumps(unknown_op),
            ])

        frames = asyncio.run(with_server(go))
        assert [f["type"] for f in frames] == ["error"] * 3
        assert "format" in frames[0]["message"]
        assert "version" in frames[1]["message"]
        assert "op" in frames[2]["message"]

    def test_bad_scenario_payload_names_the_field(self):
        def go(port: int):
            good = json.loads(encode_request(
                submit_request(small_spec(), POLICY)
            ))
            good["scenario"]["steps"][0]["n_points"] = -3
            return raw_lines(port, [json.dumps(good)])

        frames = asyncio.run(with_server(go))
        assert frames[0]["type"] == "error"
        assert "n_points" in frames[0]["message"]

    def test_cancel_unknown_job_is_an_error_frame(self):
        def go(port: int):
            with pytest.raises(ServiceError, match="unknown job id"):
                ServiceClient(port=port).cancel("job-999999")
            return True

        assert asyncio.run(with_server(go))

    def test_oversized_request_gets_an_error_frame_then_a_close(self):
        """A line past the stream limit is answered, not dropped: one
        error frame naming the limit, then the server closes; a new
        connection is served as usual."""

        def go(port: int):
            oversized = json.loads(encode_request(status_request()))
            oversized["padding"] = "x" * (MAX_REQUEST_BYTES + 4096)
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                stream = sock.makefile("rwb")
                stream.write(json.dumps(oversized).encode("utf-8") + b"\n")
                stream.flush()
                frame = json.loads(stream.readline().decode("utf-8"))
                after = stream.readline()
            return frame, after, ServiceClient(port=port).status()

        frame, after, status = asyncio.run(with_server(go))
        assert frame["type"] == "error"
        assert str(MAX_REQUEST_BYTES) in frame["message"]
        assert after == b"", "the connection stayed open after the error frame"
        assert "jobs" in status

    def test_client_rejects_bad_construction(self):
        with pytest.raises(Exception, match="port"):
            ServiceClient(port=0)
        with pytest.raises(Exception, match="timeout"):
            ServiceClient(port=1234, timeout=0)

    def test_server_rejects_bad_port(self):
        with pytest.raises(Exception, match="port"):
            AnalyzerServer(AnalyzerService(), port=-1)
