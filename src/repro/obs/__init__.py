"""Observability layer: spans, metrics registry, profiling exporters.

Public surface:

* :class:`SpanRecorder`, :class:`SpanRecord`,
  :func:`validate_nesting` — sim-time span tracing primitives.
* :class:`MetricsRegistry`, :class:`Counter`, :class:`Gauge`,
  :class:`Histogram`, :class:`MetricsSnapshot` — named metrics with
  label sets, snapshot/merge for the parallel engine.
* :class:`FlowSetupTracer` — end-to-end flow-setup span trees from the
  switch/controller event emitters.
* :class:`ObsConfig`, :class:`RunObserver`, :class:`RunObservation`,
  :class:`ObsCollector` — per-run capture and study-level reassembly.
* :class:`ComponentProfiler`, :class:`ProfileReport` — wall-clock
  component profiling of the simulation kernel itself (stride-sampled,
  attached via ``Simulator.attach_profiler``).
* :class:`HealthMonitor`, :class:`MonitorViolation` and the pluggable
  :class:`RunMonitor` checks — live heartbeats and invariant
  verification while a run executes.
* Exporters — JSONL, Chrome ``trace_event`` (Perfetto-loadable, with
  wall-clock profile tracks) and Prometheus text, with parsers for
  round-trip verification, all through the crash-safe
  :func:`open_artifact` writer.

Everything here is duck-typed against the event emitters, so
:mod:`repro.simkit` can delegate to it without an import cycle (the
monitor imports only the simkit priority constants, which import
nothing back).
"""

from .capture import ObsCollector, ObsConfig, RunObservation, RunObserver
from .exporters import (CHROME_REQUIRED_KEYS, chrome_trace_events,
                        escape_label_value, open_artifact,
                        parse_prometheus, profile_trace_events,
                        snapshot_to_prometheus,
                        span_from_dict, span_to_dict, spans_from_jsonl,
                        spans_to_chrome, spans_to_jsonl,
                        validate_chrome_trace)
from .monitor import (ConservationMonitor, HealthMonitor, HeartbeatRecord,
                      MM1EnvelopeMonitor, MonitorViolation, RunMonitor,
                      build_monitors)
from .profile import (MODULE_COMPONENTS, ComponentProfiler, ComponentStat,
                      ProfileReport, TimelinePoint, component_of)
from .flowtrace import (CAT_CHANNEL, CAT_CONTROLLER, CAT_FAULT, CAT_FLOW,
                        CAT_POOL, CAT_SWITCH, EVENT_FAULT_INJECTED,
                        EVENT_POOL_PRESSURE, FlowSetupTracer,
                        SPAN_CHANNEL_DOWN, SPAN_CHANNEL_UP,
                        SPAN_CONTROLLER_APP, SPAN_FLOW_SETUP,
                        SPAN_SWITCH_APPLY, SPAN_SWITCH_MISS)
from .registry import (DELAY_BUCKETS_S, Counter, Gauge, Histogram,
                       HistogramData, MetricsRegistry, MetricsSnapshot)
from .spans import SpanRecord, SpanRecorder, validate_nesting

__all__ = [
    "ObsCollector", "ObsConfig", "RunObservation", "RunObserver",
    "CHROME_REQUIRED_KEYS", "chrome_trace_events", "escape_label_value",
    "open_artifact", "parse_prometheus", "profile_trace_events",
    "snapshot_to_prometheus", "span_from_dict", "span_to_dict",
    "spans_from_jsonl", "spans_to_chrome", "spans_to_jsonl",
    "validate_chrome_trace",
    "ConservationMonitor", "HealthMonitor", "HeartbeatRecord",
    "MM1EnvelopeMonitor", "MonitorViolation", "RunMonitor",
    "build_monitors",
    "MODULE_COMPONENTS", "ComponentProfiler", "ComponentStat",
    "ProfileReport", "TimelinePoint", "component_of",
    "CAT_CHANNEL", "CAT_CONTROLLER", "CAT_FAULT", "CAT_FLOW", "CAT_POOL",
    "CAT_SWITCH",
    "EVENT_FAULT_INJECTED", "EVENT_POOL_PRESSURE",
    "FlowSetupTracer", "SPAN_CHANNEL_DOWN", "SPAN_CHANNEL_UP",
    "SPAN_CONTROLLER_APP", "SPAN_FLOW_SETUP", "SPAN_SWITCH_APPLY",
    "SPAN_SWITCH_MISS",
    "DELAY_BUCKETS_S", "Counter", "Gauge", "Histogram", "HistogramData",
    "MetricsRegistry", "MetricsSnapshot",
    "SpanRecord", "SpanRecorder", "validate_nesting",
]
