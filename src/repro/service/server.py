"""The TCP front end: newline-delimited canonical JSON over asyncio.

:class:`AnalyzerServer` binds an :class:`~repro.service.service.AnalyzerService`
to a localhost socket.  The protocol is deliberately minimal — one
request line in, a stream of frame lines out (see
:mod:`repro.service.wire`) — so any language with a socket and a JSON
parser can drive the analyzer; :class:`~repro.service.client.ServiceClient`
is the reference Python implementation.

Connections are line-oriented and persistent: a client may issue several
requests on one connection, each answered by its complete frame stream
before the next request is read.  A ``submit`` streams the job live —
``ack``, then every ``state``/``step`` frame as the scheduler emits it,
down to the terminal ``result`` or ``error`` frame.  Malformed requests
answer with a single ``error`` frame naming the offending field and
leave the connection open; a request line longer than
:data:`MAX_REQUEST_BYTES` is answered with one ``error`` frame and ends
the connection.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable

from ..errors import ConfigError, ServiceError
from .jobs import Job
from .service import AnalyzerService
from .wire import (
    Request,
    ack_frame,
    encode_frame,
    error_frame,
    parse_request,
    state_frame,
    status_frame,
)

#: Default bind host — the service is a lab-bench tool, not an
#: internet-facing one; bind a specific interface explicitly to share it.
DEFAULT_HOST = "127.0.0.1"

#: Longest request line the server reads (the asyncio stream limit, in
#: bytes).  A longer line is answered with one ``error`` frame naming
#: this limit, and the connection is closed.
MAX_REQUEST_BYTES = 64 * 1024


class AnalyzerServer:
    """Serve an :class:`AnalyzerService` over a line-oriented socket.

    ``port=0`` (the default) binds an ephemeral port; read :attr:`port`
    after :meth:`start` to learn the actual one — the pattern the tests
    and the in-process examples use.
    """

    def __init__(
        self,
        service: AnalyzerService,
        host: str = DEFAULT_HOST,
        port: int = 0,
    ) -> None:
        if not isinstance(port, int) or isinstance(port, bool) or port < 0:
            raise ConfigError(
                f"server: port must be an integer >= 0, got {port!r}"
            )
        self.service = service
        self.host = host
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is None:
            raise ServiceError("server is not started")
        sockets = self._server.sockets
        return int(sockets[0].getsockname()[1])

    async def start(self) -> "AnalyzerServer":
        if self._server is not None:
            raise ServiceError("server is already started")
        self._server = await asyncio.start_server(
            self._handle,
            host=self.host,
            port=self._requested_port,
            limit=MAX_REQUEST_BYTES,
        )
        return self

    async def aclose(self) -> None:
        """Stop accepting connections, wait for started jobs, and stop
        the service's worker pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.drain()
        self.service.close()

    async def __aenter__(self) -> "AnalyzerServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled (the CLI entry point)."""
        if self._server is None:
            await self.start()
        server = self._server
        if server is None:  # pragma: no cover - narrowed for the typechecker
            raise ServiceError("server failed to start")
        async with server:
            await server.serve_forever()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # readline's report of a line past the stream limit.
                    await self._refuse_oversized(reader, writer)
                    return
                if not line:
                    return
                if not line.strip():
                    continue
                try:
                    request = parse_request(json.loads(line.decode("utf-8")))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    await self._send(
                        writer, error_frame(f"request is not valid JSON: {exc}")
                    )
                    continue
                except ConfigError as exc:
                    await self._send(writer, error_frame(str(exc)))
                    continue
                try:
                    await self._dispatch(writer, request)
                except (ConfigError, ServiceError) as exc:
                    await self._send(writer, error_frame(str(exc)))
        except (ConnectionResetError, BrokenPipeError):
            return  # client went away mid-stream; the job keeps running
        finally:
            writer.close()

    async def _refuse_oversized(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer an oversized request line and end the connection.

        The rest of the line cannot be told apart from the next request,
        so the server stops reading requests: it sends the error frame,
        half-closes, and discards input until the client closes too —
        closing with unread input would reset the connection and could
        drop the frame before the client reads it.
        """
        await self._send(
            writer,
            error_frame(
                f"request line exceeds the {MAX_REQUEST_BYTES}-byte limit; "
                "closing the connection"
            ),
        )
        writer.write_eof()
        while await reader.read(MAX_REQUEST_BYTES):
            pass

    async def _dispatch(
        self, writer: asyncio.StreamWriter, request: Request
    ) -> None:
        if request.op == "submit":
            if request.spec is None:  # pragma: no cover - parse guarantees it
                raise ConfigError("submit request: missing scenario")
            job, deduped = self.service.submit_job(
                request.spec, policy=request.policy, priority=request.priority
            )
            await self._send(writer, ack_frame(job, deduped))
            await self._stream_job(writer, job)
            return
        if request.op == "status":
            await self._send(writer, status_frame(self.service.status()))
            return
        if request.op == "cancel":
            job = self.service.cancel(str(request.job_id))
            await self._send(writer, state_frame(job))
            return
        # op == "result": replay the job's full frame history once it
        # settles — enough for the client to reassemble (or to see the
        # terminal error frame).
        job = self.service.get(str(request.job_id))
        await self._settle(job)
        for frame in job.frames:
            await self._send(writer, frame)

    async def _stream_job(
        self, writer: asyncio.StreamWriter, job: Job
    ) -> None:
        """Forward the job's frames (history, then live) to one client."""
        stream = self.service.subscribe(job)
        while True:
            frame = await stream.get()
            if frame is None:
                return
            await self._send(writer, frame)

    @staticmethod
    async def _settle(job: Job) -> None:
        """Wait for a terminal state without raising on failure."""
        try:
            await job.result()
        except ServiceError:
            return

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, frame: dict) -> None:
        await _write_line(writer, encode_frame(frame))


async def _write_line(writer: asyncio.StreamWriter, line: str) -> None:
    writer.write(line.encode("utf-8") + b"\n")
    await writer.drain()


async def serve(
    host: str = DEFAULT_HOST,
    port: int = 0,
    *,
    max_running: int = 2,
    announce: Callable[[str, int], None] | None = None,
) -> None:
    """Boot a service and serve it until cancelled (``repro serve``).

    ``announce(host, port)`` is called once the socket is bound — the CLI
    prints the endpoint there, and tests learn the ephemeral port.
    """
    server = AnalyzerServer(
        AnalyzerService(max_running=max_running), host=host, port=port
    )
    await server.start()
    if announce is not None:
        announce(server.host, server.port)
    try:
        await server.serve_forever()
    finally:
        await server.aclose()
