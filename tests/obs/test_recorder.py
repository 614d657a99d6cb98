"""Span recording: nesting, paths, channels, the null recorder."""

import pytest

from repro.errors import ConfigError
from repro.obs import (
    NULL_RECORDER,
    MetricRegistry,
    NullRecorder,
    TraceRecorder,
    default_recorder,
    set_default_recorder,
    use_recorder,
)


class TestSpans:
    def test_nesting_builds_paths(self):
        recorder = TraceRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        trace = recorder.trace()
        assert trace.paths() == ("outer", "outer/inner")
        assert trace.spans[1]["parent"] == "outer"

    def test_repeated_siblings_get_occurrence_suffixes(self):
        recorder = TraceRecorder()
        with recorder.span("batch"):
            for _ in range(3):
                with recorder.span("job"):
                    pass
        assert recorder.trace().paths() == (
            "batch", "batch/job", "batch/job#2", "batch/job#3"
        )

    def test_outcome_ok_and_error(self):
        recorder = TraceRecorder()
        with recorder.span("fine"):
            pass
        with pytest.raises(ValueError):
            with recorder.span("broken"):
                raise ValueError("boom")
        spans = recorder.trace().spans
        assert spans[0]["exact"]["outcome"] == "ok"
        assert spans[1]["exact"]["outcome"] == "error:ValueError"

    def test_explicit_outcome_is_kept(self):
        recorder = TraceRecorder()
        with recorder.span("s") as span:
            span.annotate(outcome="skipped")
        assert recorder.trace().spans[0]["exact"]["outcome"] == "skipped"

    def test_channels_are_segregated(self):
        recorder = TraceRecorder()
        with recorder.span("s", kind="engine.batch", exact={"n_jobs": 5}) as span:
            span.annotate(cache_hits=1)
            span.annotate_timing(backend="vectorized")
            span.event("backend", timing={"used": "vectorized"})
        record = recorder.trace().spans[0]
        assert record["kind"] == "engine.batch"
        assert record["exact"]["n_jobs"] == 5
        assert record["exact"]["cache_hits"] == 1
        assert "backend" not in record["exact"]
        assert record["timing"]["backend"] == "vectorized"
        assert record["events"] == [
            {"name": "backend", "exact": {}, "timing": {"used": "vectorized"}}
        ]

    def test_timings_are_monotonic_microseconds(self):
        recorder = TraceRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        outer, inner = recorder.trace().spans
        assert outer["timing"]["start_us"] >= 0.0
        assert inner["timing"]["start_us"] >= outer["timing"]["start_us"]
        assert outer["timing"]["duration_us"] >= inner["timing"]["duration_us"]

    def test_open_span_reported_open_with_zero_duration(self):
        recorder = TraceRecorder()
        span = recorder.span("pending")
        span.__enter__()
        record = recorder.trace().spans[0]
        assert record["exact"]["outcome"] == "open"
        assert record["timing"]["duration_us"] == 0.0
        span.__exit__(None, None, None)
        assert recorder.trace().spans[0]["exact"]["outcome"] == "ok"

    def test_out_of_order_finish_rejected(self):
        recorder = TraceRecorder()
        outer = recorder.span("outer")
        inner = recorder.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(ConfigError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_span_needs_a_name(self):
        with pytest.raises(ConfigError, match="name"):
            TraceRecorder().span("")


class TestNullRecorder:
    def test_disabled_and_shared_span(self):
        recorder = NullRecorder()
        assert recorder.enabled is False
        span_a = recorder.span("a")
        span_b = recorder.span("b", kind="x", exact={"k": 1})
        assert span_a is span_b
        assert span_a.recording is False

    def test_null_span_accepts_the_full_protocol(self):
        with NULL_RECORDER.span("s") as span:
            span.annotate(x=1)
            span.annotate_timing(y=2)
            span.event("e", exact={"a": 1})
        assert len(NULL_RECORDER.trace()) == 0

    def test_attach_metrics_is_a_no_op(self):
        recorder = NullRecorder()
        recorder.attach_metrics(MetricRegistry())
        assert recorder.trace().metrics is None


class TestMetricsAttachment:
    def test_attached_registries_merge_into_the_trace(self):
        recorder = TraceRecorder()
        first, second = MetricRegistry(), MetricRegistry()
        first.counter("hits").inc(2)
        second.counter("hits").inc(3)
        recorder.attach_metrics(first)
        recorder.attach_metrics(second)
        recorder.attach_metrics(first)  # identity-deduped
        assert recorder.trace().metrics["hits"]["value"] == 5

    def test_registries_are_held_weakly(self):
        """Plain entry points each attach a throwaway session's registry
        to the installed recorder: the recorder must not keep them
        alive, while a live session's metrics still reach the trace."""
        import gc

        from repro.api import Session
        from repro.bist.coverage import fault_coverage
        from repro.bist.limits import SpecMask
        from repro.bist.program import BISTProgram
        from repro.dut.active_rc import ActiveRCLowpass
        from repro.dut.faults import ParametricFault

        golden = ActiveRCLowpass.from_specs(cutoff=1000.0)
        freqs = [300.0, 1000.0]
        program = BISTProgram(
            SpecMask.from_golden(golden, freqs, tolerance_db=2.0), freqs, m_periods=8
        )
        recorder = TraceRecorder()
        with use_recorder(recorder):
            live = Session(golden)
            live.runner.metrics.counter("live.marker").inc(7)
            for _ in range(5):
                fault_coverage(golden, [ParametricFault("c1", 0.5)], program)
            gc.collect()
            trace = recorder.trace()
        assert [ref() for ref in recorder._registries] == [live.runner.metrics]
        assert trace.metrics["live.marker"]["value"] == 7

    def test_no_registries_means_no_metrics(self):
        assert TraceRecorder().trace().metrics is None

    def test_wrong_type_rejected(self):
        with pytest.raises(ConfigError, match="MetricRegistry"):
            TraceRecorder().attach_metrics({})


class TestDefaultRecorderSeam:
    def test_default_is_the_null_recorder(self):
        assert default_recorder() is NULL_RECORDER

    def test_use_recorder_installs_and_restores(self):
        recorder = TraceRecorder()
        with use_recorder(recorder) as installed:
            assert installed is recorder
            assert default_recorder() is recorder
        assert default_recorder() is NULL_RECORDER

    def test_set_default_recorder_none_restores_null(self):
        try:
            set_default_recorder(TraceRecorder())
            assert default_recorder() is not NULL_RECORDER
        finally:
            set_default_recorder(None)
        assert default_recorder() is NULL_RECORDER
