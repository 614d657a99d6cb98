"""repro.service — async analyzer-as-a-service on top of repro.api.

The service layer turns the one-process :class:`~repro.api.session.Session`
facade into a long-running analyzer endpoint:

* :class:`AnalyzerService` — an asyncio job scheduler: priority queue,
  bounded concurrency, in-flight content dedupe, per-step streaming,
  and fault-tolerant lot sharding: every job's population chunks —
  sweeps, fault and pseudorandom campaigns, yield lots — run on the
  service's one retrying :class:`WorkerPool`.
* :class:`AnalyzerServer` / :class:`ServiceClient` — a newline-delimited
  canonical-JSON protocol over a localhost socket
  (:mod:`repro.service.wire`), and its blocking reference client.
* The determinism contract carries through unbroken: shards are the
  engine's own chunks, cut by its one dispatcher, seed substreams are
  indexed by absolute lot position, and a worker death replays its
  shard bit-identically — a streamed result reassembles byte-identical to a
  synchronous :meth:`~repro.api.session.Session.run_scenario`.

This package and :mod:`repro.engine` are the only modules allowed to
construct job queues and worker pools (lint rule REP002): everything
else submits work through :class:`AnalyzerService`.
"""

from .client import ServiceClient
from .jobs import JOB_STATES, TERMINAL_STATES, Job, job_id_for
from .queue import JobQueue
from .server import AnalyzerServer, serve
from .service import AnalyzerService, policy_for_spec
from .sharding import WorkerDied, WorkerPool
from .wire import (
    FRAME_FORMAT,
    FRAME_TYPES,
    FRAME_VERSION,
    REQUEST_FORMAT,
    REQUEST_OPS,
    REQUEST_VERSION,
    Request,
    ack_frame,
    cancel_request,
    encode_frame,
    encode_request,
    error_frame,
    parse_frame,
    parse_request,
    result_frame,
    result_from_frames,
    result_request,
    state_frame,
    status_frame,
    status_request,
    step_frame,
    submit_request,
)

__all__ = [
    "AnalyzerServer",
    "AnalyzerService",
    "FRAME_FORMAT",
    "FRAME_TYPES",
    "FRAME_VERSION",
    "JOB_STATES",
    "Job",
    "JobQueue",
    "REQUEST_FORMAT",
    "REQUEST_OPS",
    "REQUEST_VERSION",
    "Request",
    "ServiceClient",
    "TERMINAL_STATES",
    "WorkerDied",
    "WorkerPool",
    "ack_frame",
    "cancel_request",
    "encode_frame",
    "encode_request",
    "error_frame",
    "job_id_for",
    "parse_frame",
    "parse_request",
    "policy_for_spec",
    "result_frame",
    "result_from_frames",
    "result_request",
    "serve",
    "state_frame",
    "status_frame",
    "status_request",
    "step_frame",
    "submit_request",
]
