"""Execution policy: the one place batch-execution knobs are decided.

Before this layer existed, every subsystem re-plumbed the same three
decisions by hand: which backend evaluates the jobs, how many worker
processes fan them out, and which seed fixes the noise/Monte-Carlo
streams.  :class:`ExecutionPolicy` names those decisions once, validates
them once, and round-trips through canonical JSON
(:func:`repro.reporting.export.policy_to_json`) so a test floor can pin
a policy file next to its scenario specs and golden baselines.

A policy is *pure data* — it never touches the engine.  The
:class:`~repro.api.session.Session` facade turns a policy into live
execution resources (one :class:`~repro.engine.cache.CalibrationCache`,
one :class:`~repro.engine.runner.BatchRunner`) exactly once.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Any

from ..engine.cache import DEFAULT_MAX_ENTRIES, CalibrationCache
from ..engine.runner import BACKENDS, BatchRunner
from ..errors import ConfigError
from ..obs import MetricRegistry, NullRecorder, TraceRecorder

Recorder = NullRecorder | TraceRecorder

#: Schema identifier of a serialized execution policy.
POLICY_FORMAT = "repro-execution-policy"
POLICY_VERSION = 1


@dataclass(frozen=True)
class ExecutionPolicy:
    """How workloads execute: backend, parallelism, seeding, cache bound.

    Parameters
    ----------
    backend:
        ``"reference"`` (one Python job per measurement, the shape
        process parallelism fans out) or ``"vectorized"`` (whole
        populations as in-process array batches) — the engine's
        result-equivalent execution seam.
    n_workers:
        Worker processes for reference-backend batches (1 = inline).
    seed:
        Default seed for seeded workloads (Monte-Carlo lots); individual
        calls may override it explicitly.
    cache_max_entries:
        LRU bound of the session's shared
        :class:`~repro.engine.cache.CalibrationCache`.
    chunk_size:
        Device-axis shard size for population batches, or ``None``
        (default) to run each batch whole.  Chunking bounds peak memory
        at O(chunk) instead of O(lot) and never changes results: per-job
        seed substreams are indexed by absolute lot position, so the
        exact channel is invariant to where chunk boundaries fall (see
        :class:`~repro.engine.runner.BatchRunner`).
    """

    backend: str = "reference"
    n_workers: int = 1
    seed: int = 0
    cache_max_entries: int = DEFAULT_MAX_ENTRIES
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigError(
                f"policy: backend must be one of {BACKENDS}, "
                f"got {self.backend!r}"
            )
        if (
            not isinstance(self.n_workers, int)
            or isinstance(self.n_workers, bool)
            or self.n_workers < 1
        ):
            raise ConfigError(
                f"policy: n_workers must be an integer >= 1, "
                f"got {self.n_workers!r}"
            )
        if (
            not isinstance(self.seed, int)
            or isinstance(self.seed, bool)
            or self.seed < 0
        ):
            raise ConfigError(
                f"policy: seed must be an integer >= 0, got {self.seed!r}"
            )
        if (
            not isinstance(self.cache_max_entries, int)
            or isinstance(self.cache_max_entries, bool)
            or self.cache_max_entries < 1
        ):
            raise ConfigError(
                f"policy: cache_max_entries must be an integer >= 1, "
                f"got {self.cache_max_entries!r}"
            )
        if self.chunk_size is not None and (
            not isinstance(self.chunk_size, int)
            or isinstance(self.chunk_size, bool)
            or self.chunk_size < 1
        ):
            raise ConfigError(
                f"policy: chunk_size must be an integer >= 1 or None, "
                f"got {self.chunk_size!r}"
            )

    # ------------------------------------------------------------------
    # Derived resources
    # ------------------------------------------------------------------
    def build_cache(
        self,
        *,
        obs: Recorder | None = None,
        metrics: MetricRegistry | None = None,
    ) -> CalibrationCache:
        """A fresh calibration cache bounded by this policy.

        ``obs``/``metrics`` thread a trace recorder and metric registry
        through (see :mod:`repro.obs`); omitted, the cache uses the
        process default recorder and a private registry.
        """
        return CalibrationCache(
            max_entries=self.cache_max_entries, obs=obs, metrics=metrics
        )

    def build_runner(
        self,
        cache: CalibrationCache | None = None,
        *,
        obs: Recorder | None = None,
        metrics: MetricRegistry | None = None,
        pool: Any = None,
    ) -> BatchRunner:
        """A fresh batch runner configured by this policy.

        ``pool`` is where the runner's chunks run (see
        :class:`~repro.engine.runner.BatchRunner`): omitted, inline;
        the service passes its shared
        :class:`~repro.service.sharding.WorkerPool`, on which each
        batch keeps at most ``n_workers`` chunks in flight.
        """
        return BatchRunner(
            n_workers=self.n_workers,
            backend=self.backend,
            cache=cache if cache is not None else self.build_cache(
                obs=obs, metrics=metrics
            ),
            chunk_size=self.chunk_size,
            obs=obs,
            metrics=metrics,
            pool=pool,
        )

    def replace(self, **changes: object) -> "ExecutionPolicy":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialization (see repro.reporting.export)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Canonical JSON text round-trippable via :meth:`from_json`."""
        from ..reporting.export import policy_to_json

        return policy_to_json(self)

    @classmethod
    def from_json(cls, text: str) -> "ExecutionPolicy":
        """Rebuild a policy serialized by :meth:`to_json`."""
        from ..reporting.export import policy_from_json

        return policy_from_json(text)

    def policy_key(self) -> str:
        """Stable content hash of this policy (SHA-256 hex digest).

        Hashes the canonical JSON form, so the key is a pure function
        of the policy's *values*: two equal policies built from
        differently ordered payloads hash identically, and any field
        change (including a future schema version bump) changes the
        key.  The service layer uses it to dedupe identical in-flight
        jobs and to key calibration reuse.
        """
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def policy_to_payload(policy: ExecutionPolicy) -> dict:
    """The JSON dict form of a policy (format/version tagged)."""
    return {
        "format": POLICY_FORMAT,
        "version": POLICY_VERSION,
        "backend": policy.backend,
        "n_workers": policy.n_workers,
        "seed": policy.seed,
        "cache_max_entries": policy.cache_max_entries,
        "chunk_size": policy.chunk_size,
    }


def policy_from_payload(payload: dict) -> ExecutionPolicy:
    """Rebuild a policy from its JSON dict form (strict validation)."""
    if not isinstance(payload, dict) or payload.get("format") != POLICY_FORMAT:
        raise ConfigError(
            f"not an execution policy (expected format {POLICY_FORMAT!r})"
        )
    if payload.get("version") != POLICY_VERSION:
        raise ConfigError(
            f"unsupported policy version {payload.get('version')!r}; "
            f"this build reads version {POLICY_VERSION}"
        )
    known = {"format", "version", "backend", "n_workers", "seed",
             "cache_max_entries", "chunk_size"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(
            f"policy: unknown field(s) {unknown}; valid fields: {sorted(known)}"
        )
    fields = {k: payload[k] for k in known - {"format", "version"} if k in payload}
    return ExecutionPolicy(**fields)


def policy_for_runner(
    runner: BatchRunner, seed: int = 0
) -> ExecutionPolicy:
    """The policy an existing runner is already executing.

    Used when a :class:`~repro.api.session.Session` adopts a caller's
    runner: the session's recorded policy must describe the resources
    actually in use, not the defaults.
    """
    return ExecutionPolicy(
        backend=runner.backend,
        n_workers=runner.n_workers,
        seed=seed,
        cache_max_entries=runner.cache.max_entries,
        chunk_size=runner.chunk_size,
    )
