"""Unit tests for the observability primitives (repro.obs)."""

import json

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Span, Tracer, maybe_span


# ----------------------------------------------------------------------
# Spans and tracer
# ----------------------------------------------------------------------
def test_span_finish_and_duration():
    span = Span("work", "test", start=10.0)
    assert span.duration == 0.0          # still open
    span.finish(10.5)
    assert span.duration == 0.5


def test_tracer_begin_and_context_manager():
    tracer = Tracer()
    outer = tracer.begin("outer", "cat", key="value")
    with tracer.span("inner", "cat") as inner:
        assert inner.end is None
    outer.finish()
    assert [s.name for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[0].args == {"key": "value"}
    assert all(s.end is not None for s in tracer.spans)


def test_instant_span_has_zero_duration():
    tracer = Tracer()
    span = tracer.instant("decision", "optimize", chosen="grouping")
    assert span.end == span.start
    assert span.duration == 0.0


def test_nested_depth_is_derived_from_containment():
    tracer = Tracer()
    a = Span("a", start=0.0)
    a.finish(10.0)
    b = Span("b", start=1.0)
    b.finish(5.0)
    c = Span("c", start=2.0)
    c.finish(3.0)
    d = Span("d", start=6.0)     # sibling of b, still inside a
    d.finish(7.0)
    e = Span("e", start=11.0)    # after a closed: top level again
    e.finish(12.0)
    tracer.spans.extend([a, b, c, d, e])
    assert [(depth, s.name) for depth, s in tracer.nested()] == [
        (0, "a"), (1, "b"), (2, "c"), (1, "d"), (0, "e")]


def test_nested_handles_interleaved_generator_lifetimes():
    # Generator-shaped producers make spans that overlap without strict
    # nesting (parent opens first, closes last; children interleave).
    tracer = Tracer()
    parent = Span("parent", start=0.0)
    parent.finish(10.0)
    first = Span("first", start=1.0)
    first.finish(9.0)
    second = Span("second", start=2.0)
    second.finish(8.0)
    tracer.spans.extend([parent, first, second])
    assert [(d, s.name) for d, s in tracer.nested()] == [
        (0, "parent"), (1, "first"), (2, "second")]


def test_chrome_trace_events_are_complete_and_in_microseconds():
    tracer = Tracer()
    tracer.origin = 0.0
    span = Span("op", "operator", {"path": [0]}, start=0.001)
    span.finish(0.003)
    tracer.spans.append(span)
    payload = tracer.to_chrome_trace()
    assert payload["displayTimeUnit"] == "ms"
    (event,) = payload["traceEvents"]
    assert event["ph"] == "X"
    assert event["pid"] == 1 and event["tid"] == 1
    assert abs(event["ts"] - 1000.0) < 1e-6
    assert abs(event["dur"] - 2000.0) < 1e-6
    assert event["args"] == {"path": [0]}


def test_chrome_trace_clamps_open_spans():
    tracer = Tracer()
    tracer.origin = 0.0
    open_span = Span("open", start=1.0)          # never finished
    closed = Span("closed", start=0.0)
    closed.finish(5.0)
    tracer.spans.extend([open_span, closed])
    events = {e["name"]: e for e in
              tracer.to_chrome_trace()["traceEvents"]}
    assert events["open"]["dur"] == (5.0 - 1.0) * 1e6


def test_chrome_json_round_trips():
    tracer = Tracer()
    with tracer.span("stage", "compile", chars=42):
        pass
    parsed = json.loads(tracer.chrome_json())
    assert parsed["traceEvents"][0]["name"] == "stage"
    assert parsed["traceEvents"][0]["args"] == {"chars": 42}


def test_to_pretty_indents_and_filters():
    tracer = Tracer()
    a = Span("outer", start=0.0)
    a.finish(1.0)
    b = Span("blink", start=0.1)
    b.finish(0.1001)
    tracer.spans.extend([a, b])
    text = tracer.to_pretty()
    assert "outer" in text and "  blink" in text
    assert "blink" not in tracer.to_pretty(min_duration=0.01)


def test_maybe_span_is_noop_without_tracer():
    with maybe_span(None, "anything") as span:
        assert span is None
    tracer = Tracer()
    with maybe_span(tracer, "real", "cat") as span:
        assert span is not None
    assert tracer.spans[0].name == "real"


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_counter_and_gauge():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    gauge = Gauge()
    assert gauge.value is None
    gauge.set(1.5)
    gauge.set(2.5)
    assert gauge.value == 2.5


def test_histogram_nearest_rank_percentiles_are_exact():
    histogram = Histogram()
    for value in range(1, 101):      # 1..100
        histogram.observe(float(value))
    assert histogram.percentile(50) == 50.0
    assert histogram.percentile(95) == 95.0
    assert histogram.percentile(99) == 99.0
    assert histogram.percentile(0) == 1.0
    assert histogram.percentile(100) == 100.0


def test_histogram_single_value_and_empty():
    histogram = Histogram()
    assert histogram.percentile(50) is None
    assert histogram.snapshot()["count"] == 0
    histogram.observe(3.0)
    snap = histogram.snapshot()
    assert snap == {"count": 1, "sum": 3.0, "min": 3.0, "max": 3.0,
                    "p50": 3.0, "p95": 3.0, "p99": 3.0}


def test_registry_instruments_are_get_or_create():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")
    registry.counter("a").inc(2)
    registry.gauge("g").set(7)
    registry.histogram("h").observe(0.5)
    snap = registry.snapshot()
    assert snap["counters"] == {"a": 2}
    assert snap["gauges"] == {"g": 7}
    assert snap["histograms"]["h"]["count"] == 1
    text = registry.to_pretty()
    assert "a" in text and "n=1" in text
