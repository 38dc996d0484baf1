"""Span recorder + metrics registry unit tests (repro.obs core)."""

from __future__ import annotations

import pytest

from repro.obs import (Counter, Gauge, Histogram, MetricsRegistry,
                       MetricsSnapshot, SpanRecord, SpanRecorder,
                       validate_nesting)
from repro.obs.spans import KIND_INSTANT, KIND_SPAN


# ---------------------------------------------------------------------------
# SpanRecorder
# ---------------------------------------------------------------------------

def test_add_span_retroactive_and_rejects_negative_duration():
    recorder = SpanRecorder()
    record = recorder.add_span("whole", 1.0, 3.0, category="flow",
                               track="flow-1", flow_id=1)
    assert record is not None and record.duration == 2.0
    assert record.kind == KIND_SPAN and record.closed
    assert record.category == "flow" and record.track == "flow-1"
    assert record.attrs == {"flow_id": 1}
    with pytest.raises(ValueError, match="ends before it starts"):
        recorder.add_span("backwards", 3.0, 1.0)


def test_instant_is_closed_zero_duration():
    recorder = SpanRecorder()
    record = recorder.instant("drop", t=2.0, drop_reason="buffer_full")
    assert record.kind == KIND_INSTANT
    assert record.closed and record.duration == 0.0
    assert record.attrs["drop_reason"] == "buffer_full"


def test_disabled_recorder_stores_nothing_but_handles_work():
    recorder = SpanRecorder(enabled=False)
    assert recorder.instant("i", t=0.0) is None
    assert recorder.add_span("a", 0.0, 1.0) is None
    assert len(recorder) == 0 and recorder.dropped == 0


def test_max_spans_cap_counts_drops_and_clear_resets():
    recorder = SpanRecorder(max_spans=2)
    for n in range(5):
        recorder.instant(f"e{n}", t=float(n))
    recorder.add_span("late", 5.0, 6.0)
    assert [r.name for r in recorder.records] == ["e0", "e1"]
    assert recorder.dropped == 4


# ---------------------------------------------------------------------------
# validate_nesting
# ---------------------------------------------------------------------------

def test_validate_nesting_accepts_well_formed_tree():
    recorder = SpanRecorder()
    root = recorder.add_span("root", 0.0, 1.0)
    recorder.add_span("child", 0.2, 0.8, parent=root.span_id)
    recorder.add_span("edge", 0.0, 1.0, parent=root.span_id)
    assert validate_nesting(recorder.records) == []


def test_validate_nesting_flags_unclosed_span():
    # A record read back from a trace file may lack its end.
    record = SpanRecord(name="open", category="", start=0.0, end=None,
                        span_id=1)
    assert not record.closed and record.duration is None
    problems = validate_nesting([record])
    assert problems and "never closed" in problems[0]


def test_validate_nesting_flags_unknown_parent():
    recorder = SpanRecorder()
    recorder.add_span("orphan", 0.0, 1.0, parent=999)
    problems = validate_nesting(recorder.records)
    assert problems and "unknown parent" in problems[0]


def test_validate_nesting_flags_child_outside_parent():
    recorder = SpanRecorder()
    root = recorder.add_span("root", 0.5, 1.0)
    recorder.add_span("early", 0.0, 0.9, parent=root.span_id)
    recorder.add_span("late", 0.6, 2.0, parent=root.span_id)
    problems = validate_nesting(recorder.records)
    assert len(problems) == 2
    assert any("starts at" in p for p in problems)
    assert any("ends at" in p for p in problems)


# ---------------------------------------------------------------------------
# Counters / gauges / histograms
# ---------------------------------------------------------------------------

def test_counter_inc_and_reset():
    counter = Counter("packets_total", switch="ovs")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    assert counter.labels == (("switch", "ovs"),)


def test_gauge_set_and_track_max():
    gauge = Gauge("peak_units")
    gauge.track_max(3)
    gauge.track_max(7)
    gauge.track_max(5)
    assert gauge.value == 7


def test_histogram_bucket_placement_is_upper_bound_inclusive():
    histogram = Histogram("delay_seconds", buckets=(0.001, 0.01, 0.1))
    for value in (0.0005, 0.001, 0.05, 5.0):
        histogram.observe(value)
    # (<=0.001) x2, (0.001, 0.01] x0, (0.01, 0.1] x1, overflow x1
    assert histogram.counts == [2, 0, 1, 1]
    assert histogram.count == 4
    assert histogram.sum == pytest.approx(5.0515)


def test_histogram_requires_buckets():
    with pytest.raises(ValueError, match="at least one bucket"):
        Histogram("empty", buckets=())


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------

def test_registry_get_or_create_is_idempotent_per_label_set():
    registry = MetricsRegistry()
    a = registry.counter("hits_total", switch="s1")
    b = registry.counter("hits_total", switch="s1")
    c = registry.counter("hits_total", switch="s2")
    assert a is b and a is not c
    assert len(registry) == 2


def test_registry_kind_conflict_raises_type_error():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError, match="already registered"):
        registry.gauge("x")
    with pytest.raises(TypeError, match="already registered"):
        registry.histogram("x")


def test_registry_adopts_standalone_metric_shared_not_copied():
    registry = MetricsRegistry()
    counter = Counter("pktbuf_buffered_total")
    registry.register(counter)
    registry.register(counter)           # same instance is fine
    counter.inc(3)
    assert registry.snapshot().counters[("pktbuf_buffered_total", ())] == 3
    with pytest.raises(ValueError, match="different instance"):
        registry.register(Counter("pktbuf_buffered_total"))


def test_registry_get_does_not_create():
    registry = MetricsRegistry()
    assert registry.get("nope") is None
    assert len(registry) == 0


def test_registry_metrics_sorted_by_name_then_labels():
    registry = MetricsRegistry()
    registry.counter("b_total")
    registry.counter("a_total", z="2")
    registry.counter("a_total", z="1")
    names = [(m.name, m.labels) for m in registry.metrics()]
    assert names == sorted(names)


# ---------------------------------------------------------------------------
# MetricsSnapshot merge semantics
# ---------------------------------------------------------------------------

def _snapshot(counter=0, gauge=0.0, observations=()):
    registry = MetricsRegistry()
    registry.counter("c_total").inc(counter)
    registry.gauge("g_peak").track_max(gauge)
    histogram = registry.histogram("h_seconds", buckets=(0.1, 1.0))
    for value in observations:
        histogram.observe(value)
    return registry.snapshot()


def test_merge_counters_add_gauges_max_histograms_elementwise():
    merged = MetricsSnapshot()
    merged.merge(_snapshot(counter=2, gauge=5.0, observations=(0.05,)))
    merged.merge(_snapshot(counter=3, gauge=4.0, observations=(0.5, 2.0)))
    assert merged.counters[("c_total", ())] == 5
    assert merged.gauges[("g_peak", ())] == 5.0
    data = merged.histograms[("h_seconds", ())]
    assert data.counts == (1, 1, 1)
    assert data.count == 3
    assert data.sum == pytest.approx(2.55)


def test_merge_rejects_mismatched_histogram_buckets():
    left = MetricsRegistry()
    left.histogram("h", buckets=(0.1,)).observe(0.05)
    right = MetricsRegistry()
    right.histogram("h", buckets=(0.2,)).observe(0.05)
    merged = left.snapshot()
    with pytest.raises(ValueError, match="bucket bounds"):
        merged.merge(right.snapshot())


def test_with_labels_rescopes_every_metric():
    snapshot = _snapshot(counter=1, gauge=2.0, observations=(0.5,))
    scoped = snapshot.with_labels(run="buffer-16")
    assert scoped.counters[("c_total", (("run", "buffer-16"),))] == 1
    assert scoped.gauges[("g_peak", (("run", "buffer-16"),))] == 2.0
    assert ("h_seconds", (("run", "buffer-16"),)) in scoped.histograms
    # original untouched
    assert ("c_total", ()) in snapshot.counters
    assert not scoped.empty and MetricsSnapshot().empty
