"""The uniform result every session workload returns.

One instrument, one result shape: whatever the workload — Bode sweep,
yield lot, coverage campaign, diagnosis, distortion probe, dynamic-range
sweep, whole scenario — a :class:`~repro.api.session.Session` method
returns a :class:`SessionResult` carrying

* the two comparison channels (``exact`` / ``floats``, see
  :mod:`repro.api.channels`),
* the :class:`~repro.api.policy.ExecutionPolicy` that ran it and the
  cache/backend accounting of the run (:class:`SessionStats`),
* the untouched domain object (``raw``) for callers that want the rich
  per-subsystem API (``BodeResult``, ``YieldReport``, ...), and
* uniform exports: canonical JSON (:meth:`SessionResult.to_json`) and
  long-format CSV (:meth:`SessionResult.to_csv`), identical column
  schema for every workload.

:class:`Result` is the structural protocol — anything exposing the
channel/export surface conforms, so downstream tooling can consume
results without importing the concrete class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol, runtime_checkable

from ..errors import ConfigError
from .policy import ExecutionPolicy, policy_to_payload

#: Schema identifier of a serialized session result.
RESULT_FORMAT = "repro-api-result"
RESULT_VERSION = 1


@runtime_checkable
class Result(Protocol):
    """Structural protocol of a uniform workload result."""

    workload: str
    name: str
    exact: dict
    floats: dict

    def to_json(self) -> str:  # pragma: no cover - protocol stub
        ...

    def to_csv(self) -> str:  # pragma: no cover - protocol stub
        ...


@dataclass(frozen=True)
class SessionStats:
    """Execution accounting for one session workload.

    ``backend`` is the backend that executed the workload's last engine
    batch (``"reference"`` even under a vectorized policy when the
    workload has no vectorized path); cache counters are deltas over
    the *whole* workload, which may span several engine batches (a
    coverage run measures the good device, then the catalog).
    ``fallbacks`` counts the workload's batches that *requested* the
    vectorized backend but were forced onto the reference path because
    their workload has no vectorized form — distortion today (see
    :meth:`repro.engine.runner.BatchRunner._plan_backend`).  Every
    analyzer *configuration* vectorizes, so nonzero fallbacks name a
    workload gap, never a configuration gap.  ``fallback_rows`` counts
    the workload's ideal, stream-free state-space rows whose closed-form
    window sums did not certify their counts, so the per-row path
    counted them (:mod:`repro.engine.window_sums`).
    """

    backend: str
    n_workers: int
    cache_hits: int
    cache_misses: int
    fallbacks: int = 0
    fallback_rows: int = 0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def to_payload(self) -> dict:
        return {
            "backend": self.backend,
            "n_workers": self.n_workers,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "fallbacks": self.fallbacks,
            "fallback_rows": self.fallback_rows,
        }


@dataclass(frozen=True)
class SessionResult:
    """Concrete :class:`Result` with policy, stats and the raw payload."""

    workload: str
    name: str
    exact: dict
    floats: dict
    policy: ExecutionPolicy
    stats: SessionStats
    raw: object = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not self.workload:
            raise ConfigError("session result needs a workload kind")
        if not self.name:
            raise ConfigError("session result needs a name")

    # ------------------------------------------------------------------
    # Uniform export
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """The JSON dict form (format/version tagged, channels split)."""
        return {
            "format": RESULT_FORMAT,
            "version": RESULT_VERSION,
            "workload": self.workload,
            "name": self.name,
            "policy": policy_to_payload(self.policy),
            "stats": self.stats.to_payload(),
            "exact": self.exact,
            "floats": self.floats,
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, repr-roundtrip floats, byte-stable)."""
        from ..reporting.export import canonical_json

        return canonical_json(self.to_payload())

    def to_csv(self) -> str:
        """Long-format CSV: ``channel,field,index,value`` rows.

        One schema for every workload: nested dicts flatten into
        dot-joined field names (scenario results nest by step), nested
        lists into dot-joined indices (signature count quadruples), so
        no downstream tool needs per-workload column knowledge.
        """
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["channel", "field", "index", "value"])
        for channel, payload in (("exact", self.exact), ("floats", self.floats)):
            for fieldname, index, value in _flatten(payload):
                writer.writerow([channel, fieldname, index, value])
        return buffer.getvalue()


def _flatten(
    payload: dict[str, Any], prefix: str = ""
) -> Iterator[tuple[str, str, object]]:
    """Yield ``(field, index, scalar)`` rows for a channel payload."""
    for key in payload:
        name = f"{prefix}{key}"
        yield from _flatten_value(name, "", payload[key])


def _flatten_value(
    name: str, index: str, value: object
) -> Iterator[tuple[str, str, object]]:
    if isinstance(value, dict):
        for key in value:
            yield from _flatten_value(f"{name}.{key}", index, value[key])
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            sub = f"{index}.{i}" if index else str(i)
            yield from _flatten_value(name, sub, item)
    else:
        yield name, index, value


@dataclass(frozen=True)
class DiagnosisOutcome:
    """Raw payload of :meth:`~repro.api.session.Session.diagnose`.

    Everything the workload produced: the full dictionary, the selected
    probe frequencies, the production (restricted) dictionary, the
    measured signature of the device under diagnosis, and the ranked
    diagnosis itself.
    """

    dictionary: object
    probes: tuple[float, ...]
    production: object
    signature: object
    diagnosis: object
