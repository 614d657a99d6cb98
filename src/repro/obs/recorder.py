"""Span tracing: where one analyzer run spends its time.

A :class:`TraceRecorder` produces a span tree mirroring the execution
layers (the taxonomy DESIGN.md documents)::

    session.*            one span per Session workload call
      scenario:<name>    one span per scenario run
        <step name>      one span per compiled scenario step
      faults.campaign    one span per fault-dictionary campaign
      prbist.campaign    one span per pseudorandom campaign
        engine.<batch>   one span per engine job batch
          calibration    one span per calibration-cache lookup
          job[i]         one span per dispatched job

Two-channel contract
--------------------
Every span (and every event on it) splits its payload exactly like the
scenario layer's results (:mod:`repro.scenarios.result`):

* ``exact`` — names, kinds, outcomes, job counts, cache hit/miss
  deltas.  Bit-identical across backends, worker counts and platforms:
  the same workload under ``n_workers=1`` or ``4``, reference or
  vectorized, produces the *same tree shape and the same exact
  payloads*.  This is what lets a trace be diffed like a golden
  baseline (:func:`repro.obs.compare.diff_traces`).
* ``timing`` — monotonic start/duration (microseconds, relative to the
  recorder's epoch), the backend that actually executed, effective
  workers, worker attribution.  Everything that may legitimately differ
  between equivalent executions lives here, segregated so golden
  comparisons never read it.

NullRecorder contract
---------------------
:class:`NullRecorder` is the default ``obs=`` everywhere: ``enabled``
is ``False``, ``span()`` hands back one shared no-op span, and nothing
is allocated or stored per call — the instrumented hot paths guard
their per-job work behind ``obs.enabled`` and pay only a context-manager
enter/exit per *batch* otherwise (``benchmarks/bench_obs_overhead.py``
holds the figure within noise; the active recorder must stay under 5 %
on the vectorized throughput workload).

The process-wide default recorder seam (:func:`default_recorder` /
:func:`use_recorder`) lets a harness — the benchmark ``--trace`` opt-in
— trace existing code without threading ``obs=`` through every
constructor.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass

from ..errors import ConfigError
from .metrics import MetricRegistry, merge_snapshots


@dataclass(frozen=True)
class Trace:
    """A completed recording: flattened span records plus metrics.

    ``spans`` is the pre-order flattening of the span tree.  Each record
    is a plain dict — ``path`` (slash-joined ancestry, ``#k``-suffixed
    for repeated sibling names), ``parent``, ``name``, ``kind``,
    ``exact``, ``timing`` and ``events`` — ready for canonical JSONL
    export (:func:`repro.reporting.export.trace_to_jsonl`).  ``metrics``
    is the merged registry snapshot (timing channel), or ``None``.
    """

    spans: tuple = ()
    metrics: dict | None = None

    def __len__(self) -> int:
        return len(self.spans)

    def paths(self) -> tuple[str, ...]:
        return tuple(record["path"] for record in self.spans)


class Span:
    """One timed unit of work, used as a context manager."""

    __slots__ = ("name", "kind", "exact", "timing", "events", "children",
                 "_recorder", "_start_ns", "_duration_ns")

    #: A live span records timings; the shared null span does not.
    recording = True

    def __init__(self, recorder: "TraceRecorder", name: str, kind: str,
                 exact: dict | None) -> None:
        if not name:
            raise ConfigError("span needs a name")
        self.name = name
        self.kind = kind
        self.exact = dict(exact) if exact else {}
        self.timing: dict = {}
        self.events: list[dict] = []
        self.children: list[Span] = []
        self._recorder = recorder
        self._start_ns = None
        self._duration_ns = None

    # ------------------------------------------------------------------
    def annotate(self, **exact) -> None:
        """Attach exact-channel attributes (deterministic values only)."""
        self.exact.update(exact)

    def annotate_timing(self, **timing) -> None:
        """Attach timing-channel attributes (may vary between runs)."""
        self.timing.update(timing)

    def event(self, name: str, exact: dict | None = None,
              timing: dict | None = None) -> None:
        """Record a point event on this span.

        Event *names* and ``exact`` payloads belong to the exact
        channel — emit the same events in the same order on every
        execution strategy, and put anything strategy-dependent (the
        backend actually used, worker attribution) in ``timing``.
        """
        self.events.append({
            "name": name,
            "exact": dict(exact) if exact else {},
            "timing": dict(timing) if timing else {},
        })

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._recorder._start(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if "outcome" not in self.exact:
            self.exact["outcome"] = (
                "ok" if exc_type is None else f"error:{exc_type.__name__}"
            )
        self._recorder._finish(self)


class _NullSpan:
    """The shared do-nothing span the :class:`NullRecorder` hands out."""

    __slots__ = ()
    recording = False

    def annotate(self, **exact) -> None:
        pass

    def annotate_timing(self, **timing) -> None:
        pass

    def event(self, name, exact=None, timing=None) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullRecorder:
    """The zero-cost default recorder: records nothing, allocates nothing.

    Every ``span()`` call returns the one shared :data:`NULL_SPAN`;
    ``trace()`` is an empty :class:`Trace`.  Instrumented code may hold
    and use a ``NullRecorder`` unconditionally — the contract is that
    doing so costs no more than the attribute checks themselves.
    """

    enabled = False

    def span(self, name: str, kind: str = "span",
             exact: dict | None = None) -> _NullSpan:
        return NULL_SPAN

    def attach_metrics(self, registry: MetricRegistry) -> None:
        pass

    def trace(self) -> Trace:
        return Trace()


#: The module-level shared null recorder (the usual ``obs=None`` default).
NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Record a span tree with monotonic timings.

    Spans nest per thread (a thread-local stack); completed roots
    accumulate on the recorder.  ``trace()`` snapshots the recording as
    flattened records — it may be called repeatedly, and reflects
    everything finished so far (open spans are reported with
    ``outcome: "open"`` and zero duration).
    """

    enabled = True

    def __init__(self) -> None:
        self._epoch_ns = time.perf_counter_ns()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: list[Span] = []
        # Weak: a plain entry point's throwaway session attaches its
        # registry here, which must not outlive the session.
        self._registries: list[weakref.ref[MetricRegistry]] = []

    # ------------------------------------------------------------------
    def span(self, name: str, kind: str = "span",
             exact: dict | None = None) -> Span:
        return Span(self, name, kind, exact)

    def attach_metrics(self, registry: MetricRegistry) -> None:
        """Register a metrics source to embed in exported traces.

        The recorder holds it weakly: exported traces embed the metrics
        of the registries still alive, in the order they were attached.
        """
        if not isinstance(registry, MetricRegistry):
            raise ConfigError(
                f"attach_metrics expects a MetricRegistry, got {registry!r}"
            )
        with self._lock:
            if not any(r is registry for r in self._live_registries()):
                self._registries.append(weakref.ref(registry))

    def _live_registries(self) -> list[MetricRegistry]:
        """The attached registries still alive, dropping the dead ones'
        references; call under ``self._lock``."""
        live = [ref() for ref in self._registries]
        self._registries = [
            ref for ref, registry in zip(self._registries, live)
            if registry is not None
        ]
        return [registry for registry in live if registry is not None]

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _start(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)
        stack.append(span)
        span._start_ns = time.perf_counter_ns()

    def _finish(self, span: Span) -> None:
        span._duration_ns = time.perf_counter_ns() - span._start_ns
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise ConfigError(
                f"span {span.name!r} finished out of order; spans must "
                f"nest (use them as context managers)"
            )
        stack.pop()

    # ------------------------------------------------------------------
    def trace(self) -> Trace:
        """Snapshot the recording as a flat, export-ready :class:`Trace`."""
        records: list[dict] = []
        with self._lock:
            roots = list(self._roots)
            registries = self._live_registries()
        counts: dict[tuple, int] = {}
        for root in roots:
            self._flatten(root, None, counts, records)
        metrics = (
            merge_snapshots(r.snapshot() for r in registries)
            if registries else None
        )
        return Trace(spans=tuple(records), metrics=metrics)

    def _flatten(self, span: Span, parent_path: str | None,
                 counts: dict, records: list) -> None:
        key = (parent_path, span.name)
        counts[key] = counts.get(key, 0) + 1
        name = span.name if counts[key] == 1 else f"{span.name}#{counts[key]}"
        path = name if parent_path is None else f"{parent_path}/{name}"
        start_ns = span._start_ns if span._start_ns is not None else 0
        exact = dict(span.exact)
        if span._duration_ns is None:
            exact.setdefault("outcome", "open")
        timing = {
            "start_us": (start_ns - self._epoch_ns) / 1000.0,
            "duration_us": (span._duration_ns or 0) / 1000.0,
        }
        timing.update(span.timing)
        records.append({
            "type": "span",
            "path": path,
            "parent": parent_path,
            "name": span.name,
            "kind": span.kind,
            "exact": exact,
            "timing": timing,
            "events": [dict(e) for e in span.events],
        })
        for child in list(span.children):
            self._flatten(child, path, counts, records)


# ----------------------------------------------------------------------
# The process-wide default-recorder seam
# ----------------------------------------------------------------------

_default_recorder = NULL_RECORDER
_default_lock = threading.Lock()


def default_recorder():
    """The recorder ``obs=None`` resolves to (a NullRecorder unless set)."""
    return _default_recorder


def set_default_recorder(recorder) -> None:
    """Install a process-wide default recorder (None restores the null)."""
    global _default_recorder
    with _default_lock:
        _default_recorder = recorder if recorder is not None else NULL_RECORDER


@contextmanager
def use_recorder(recorder):
    """Temporarily install ``recorder`` as the process-wide default.

    The benchmark harness's ``--trace`` opt-in wraps each bench in this,
    so sessions and runners constructed inside pick the recorder up
    without any API change.
    """
    previous = _default_recorder
    set_default_recorder(recorder)
    try:
        yield recorder
    finally:
        set_default_recorder(previous)
