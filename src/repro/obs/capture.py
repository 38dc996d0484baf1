"""Run-level observation plumbing: config, per-run observer, collector.

The pieces and who owns them:

* :class:`ObsConfig` — a tiny frozen, picklable switchboard.  It rides
  inside :class:`~repro.parallel.tasks.SweepJob` so fork workers know
  whether (and how densely) to trace.
* :class:`RunObserver` — attached to one testbed by
  :func:`repro.experiments.runner.run_once`; it wires a
  :class:`~repro.obs.flowtrace.FlowSetupTracer` to the emitters and, at
  the end of the run, snapshots the testbed's metrics registry into a
  picklable :class:`RunObservation`.
* :class:`ObsCollector` — parent-side accumulator.  The sweep engine
  feeds it every task's observation, from its in-process executor or
  shipped back by fork workers, merging per-task metrics on
  reassembly.  It writes the final artifacts (JSONL / Chrome trace,
  Prometheus text).

Observation never perturbs the run: the tracer only listens to events
the components already emit, and the registry counters tick whether or
not anyone snapshots them — so observed and unobserved runs produce
bit-identical :class:`~repro.metrics.RunMetrics`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from .exporters import (chrome_trace_events, open_artifact,
                        profile_trace_events, snapshot_to_prometheus,
                        spans_to_jsonl)
from .flowtrace import CAT_POOL, EVENT_POOL_PRESSURE, FlowSetupTracer
from .monitor import (HealthMonitor, HeartbeatRecord, MonitorViolation,
                      build_monitors)
from .profile import ComponentProfiler, ProfileReport
from .registry import DELAY_BUCKETS_S, MetricsRegistry, MetricsSnapshot
from .spans import SpanRecord, SpanRecorder


@dataclass(frozen=True)
class ObsConfig:
    """What to observe.  Frozen and picklable (crosses the fork boundary)."""

    #: Record flow-setup span trees?  (Metrics are always snapshotted.)
    trace: bool = True
    #: Trace every Nth flow (1 = every flow).
    trace_sample: int = 1
    #: Per-run span cap; overflow increments ``dropped_spans`` instead of
    #: growing without bound.
    max_spans: Optional[int] = 200_000
    #: Wall-clock component profiling (``repro.obs.profile``)?  Off by
    #: default: the unprofiled kernel loop stays byte-identical.
    profile: bool = False
    #: Time one event in this many (profiling only).
    profile_stride: int = ComponentProfiler.DEFAULT_STRIDE
    #: Online health monitoring (heartbeats + conservation checks)?
    monitor: bool = False
    #: Heartbeat period, simulated seconds (monitoring only).
    monitor_interval: float = 0.010
    #: Also check the analytic M/M/1 setup-delay envelope at each beat?
    mm1_envelope: bool = False

    def __post_init__(self) -> None:
        if self.trace_sample < 1:
            raise ValueError(
                f"trace_sample must be >= 1, got {self.trace_sample}")
        if self.profile_stride < 1:
            raise ValueError(
                f"profile_stride must be >= 1, got {self.profile_stride}")
        if self.monitor_interval <= 0:
            raise ValueError(f"monitor_interval must be > 0, "
                             f"got {self.monitor_interval}")


@dataclass
class RunObservation:
    """One repetition's observability payload (picklable)."""

    label: str
    rate_mbps: float
    rep: int
    seed: int
    spans: List[SpanRecord] = field(default_factory=list)
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    dropped_spans: int = 0
    flows_traced: int = 0
    #: Wall-clock profile of this repetition (``config.profile`` runs).
    profile: Optional[ProfileReport] = None
    #: Heartbeat stream of this repetition (``config.monitor`` runs).
    heartbeats: List[HeartbeatRecord] = field(default_factory=list)
    #: Invariant violations caught live (first occurrence per subject).
    violations: List[MonitorViolation] = field(default_factory=list)

    @property
    def key(self) -> Tuple[str, float, int]:
        """Canonical sort key: grid coordinates, never completion order."""
        return (self.label, self.rate_mbps, self.rep)

    @property
    def group_name(self) -> str:
        """Display name for this run's lane in trace viewers."""
        return f"{self.label} rate={self.rate_mbps:g} rep={self.rep}"


#: Histograms the observer derives from each run's delay lists.
_DELAY_HISTOGRAMS = (
    ("flow_setup_delay_seconds", "setup_delays"),
    ("controller_delay_seconds", "controller_delays"),
    ("switch_delay_seconds", "switch_delays"),
)


class RunObserver:
    """Observes one ``run_once`` from testbed build to snapshot."""

    def __init__(self, config: ObsConfig, label: str = "",
                 rate_mbps: float = 0.0, rep: int = 0, seed: int = 0,
                 heartbeat_sink: Optional[Callable[[dict], None]] = None):
        self.config = config
        self.label = label
        self.rate_mbps = rate_mbps
        self.rep = rep
        self.seed = seed
        self.recorder = SpanRecorder(enabled=config.trace,
                                     max_spans=config.max_spans)
        self.tracer: Optional[FlowSetupTracer] = None
        self.tracers: List[FlowSetupTracer] = []
        self.profiler: Optional[ComponentProfiler] = None
        self.monitor: Optional[HealthMonitor] = None
        #: Streaming hook: receives each heartbeat's JSON-ready dict the
        #: instant the beat fires (``repro profile`` streams these to the
        #: heartbeat JSONL file live; left None, the collector writes
        #: everything at the end).
        self.heartbeat_sink = heartbeat_sink
        self.observation: Optional[RunObservation] = None

    def attach(self, testbed, calibration=None) -> None:
        """Wire observation into a freshly built testbed.

        Three independent concerns, each gated by its config switch:
        span tracing (one :class:`FlowSetupTracer` per switch feeding the
        shared recorder; multi-switch paths get per-datapath labels and
        switch-scoped track names, the single-switch output is the
        historical one), wall-clock profiling (a
        :class:`ComponentProfiler` attached to the testbed's simulator),
        and health monitoring (a :class:`HealthMonitor` beating on the
        simulated clock; ``calibration`` feeds the optional M/M/1
        envelope check).
        """
        if self.config.trace:
            switches = testbed.switches
            multi = len(switches) > 1
            mechanism = self.label or switches[0].mechanism.name
            self.tracers = []
            for switch in switches:
                tracer = FlowSetupTracer(
                    self.recorder, mechanism=mechanism, switch=switch.name,
                    sample=self.config.trace_sample,
                    datapath_id=switch.datapath_id if multi else None,
                    scope_tracks=multi)
                tracer.attach(switch.events, testbed.controller.events)
                self.tracers.append(tracer)
            self.tracer = self.tracers[0]
            if testbed.pool is not None:
                testbed.pool.events.on("pool_pressure",
                                       self._on_pool_pressure)
        if self.config.profile:
            self.profiler = ComponentProfiler(
                stride=self.config.profile_stride)
            testbed.sim.attach_profiler(self.profiler)
        if self.config.monitor:
            self.monitor = HealthMonitor(
                interval=self.config.monitor_interval,
                monitors=build_monitors(
                    conservation=True,
                    mm1=self.config.mm1_envelope,
                    rate_mbps=self.rate_mbps,
                    calibration=calibration),
                on_beat=self._on_heartbeat)
            self.monitor.attach(testbed)

    def _on_heartbeat(self, record: HeartbeatRecord) -> None:
        if self.heartbeat_sink is not None:
            payload = record.to_dict()
            payload["record"] = "heartbeat"
            payload["run"] = self.group_name
            self.heartbeat_sink(payload)

    @property
    def group_name(self) -> str:
        """Display name for this run (matches the observation's)."""
        return f"{self.label} rate={self.rate_mbps:g} rep={self.rep}"

    def _on_pool_pressure(self, time: float, kind: str, partition: str,
                          occupancy: int, free: int, reason: str) -> None:
        """A shared-pool rejection or high-occupancy edge crossing."""
        self.recorder.instant(EVENT_POOL_PRESSURE, t=time,
                              category=CAT_POOL, track="pool",
                              kind=kind, partition=partition,
                              occupancy=occupancy, free=free,
                              reason=reason)

    def finish(self, testbed, run_metrics) -> RunObservation:
        """Snapshot registry + delay histograms into the observation.

        Also detaches the profiler and monitor (their data is frozen
        into the observation), so the testbed can be shut down and the
        simulator reused without observation hooks lingering.
        """
        snapshot = testbed.registry.snapshot()
        snapshot.merge(self._delay_histograms(run_metrics))
        if self.label:
            snapshot = snapshot.with_labels(run=self.label)
        profile = None
        if self.profiler is not None:
            testbed.sim.detach_profiler()
            profile = self.profiler.report()
        heartbeats: List[HeartbeatRecord] = []
        violations: List[MonitorViolation] = []
        if self.monitor is not None:
            self.monitor.detach()
            heartbeats = list(self.monitor.heartbeats)
            violations = list(self.monitor.violations)
        self.observation = RunObservation(
            label=self.label, rate_mbps=self.rate_mbps, rep=self.rep,
            seed=self.seed, spans=list(self.recorder.records),
            metrics=snapshot, dropped_spans=self.recorder.dropped,
            flows_traced=sum(t.flows_traced for t in self.tracers),
            profile=profile, heartbeats=heartbeats, violations=violations)
        return self.observation

    @staticmethod
    def _delay_histograms(run_metrics) -> MetricsSnapshot:
        registry = MetricsRegistry()
        for name, attribute in _DELAY_HISTOGRAMS:
            histogram = registry.histogram(name, buckets=DELAY_BUCKETS_S)
            for value in getattr(run_metrics, attribute, ()):
                histogram.observe(value)
        return registry.snapshot()


class ObsCollector:
    """Accumulates observations across a whole sweep / parameter study."""

    def __init__(self, config: Optional[ObsConfig] = None,
                 heartbeat_sink: Optional[Callable[[dict], None]] = None):
        self.config = config if config is not None else ObsConfig()
        self.observations: List[RunObservation] = []
        #: The sweep engine's in-process executor hands this to each
        #: run's observer, so beats stream live; fork workers cannot
        #: stream across the process boundary, so their heartbeats
        #: arrive with the observation and only the final JSONL has them.
        self.heartbeat_sink = heartbeat_sink

    # -- feeding ---------------------------------------------------------
    def add(self, observation: Optional[RunObservation]) -> None:
        """Record one repetition's payload (``None`` is ignored)."""
        if observation is not None:
            self.observations.append(observation)

    # -- reassembly ------------------------------------------------------
    def _sorted(self) -> List[RunObservation]:
        return sorted(self.observations, key=lambda o: o.key)

    def merged_metrics(self) -> MetricsSnapshot:
        """All tasks' metrics folded together, in canonical grid order.

        Sorting before merging keeps float histogram sums independent of
        worker completion order, mirroring the engine's bit-identical
        reassembly guarantee.
        """
        merged = MetricsSnapshot()
        for observation in self._sorted():
            merged.merge(observation.metrics)
        return merged

    def trace_groups(self) -> List[Tuple[str, Sequence[SpanRecord]]]:
        """Per-run span groups, in canonical grid order."""
        return [(o.group_name, o.spans) for o in self._sorted() if o.spans]

    def profile_groups(self) -> List[Tuple[str, ProfileReport]]:
        """Per-run wall-clock profiles, in canonical grid order."""
        return [(o.group_name, o.profile) for o in self._sorted()
                if o.profile is not None]

    def merged_profile(self) -> Optional[ProfileReport]:
        """All runs' profiles folded together, in canonical grid order.

        Grid-order merging (never completion order) keeps float sums and
        timeline concatenation deterministic, so a one-worker and a
        ``--workers N`` sweep produce field-identical
        :meth:`~repro.obs.profile.ProfileReport.deterministic_summary`
        values.  ``None`` when no run was profiled.
        """
        merged: Optional[ProfileReport] = None
        for _, profile in self.profile_groups():
            if merged is None:
                merged = ProfileReport(stride=profile.stride)
            merged.merge(profile)
        return merged

    def monitor_summary(self) -> dict:
        """Deterministic monitor roll-up across the sweep (grid order)."""
        runs = []
        violations = 0
        for observation in self._sorted():
            if not observation.heartbeats and not observation.violations:
                continue
            verdicts: dict = {}
            for beat in observation.heartbeats:
                for name, verdict in beat.verdicts.items():
                    counts = verdicts.setdefault(
                        name, {"ok": 0, "violated": 0})
                    counts[verdict] += 1
            violations += len(observation.violations)
            runs.append({
                "run": observation.group_name,
                "beats": len(observation.heartbeats),
                "verdicts": verdicts,
                "violations": [v.to_dict()
                               for v in observation.violations],
            })
        return {"runs": runs, "total_violations": violations}

    @property
    def total_violations(self) -> int:
        """Monitor violations across every observation."""
        return sum(len(o.violations) for o in self.observations)

    @property
    def total_spans(self) -> int:
        """Spans collected across every observation."""
        return sum(len(o.spans) for o in self.observations)

    @property
    def dropped_spans(self) -> int:
        """Spans dropped to per-run caps, across every observation."""
        return sum(o.dropped_spans for o in self.observations)

    # -- artifacts -------------------------------------------------------
    def write_trace(self, path) -> Path:
        """Write the trace: ``*.jsonl`` as JSONL, anything else as a
        Chrome ``trace_event`` JSON (open it in Perfetto).

        Profiled runs add wall-clock processes (component self-time +
        sim-rate counter tracks) beside the sim-time span processes in
        the Chrome output.  Emission is exception-safe: the final path
        never holds a half-written file (see
        :func:`repro.obs.exporters.open_artifact`).
        """
        path = Path(path)
        if path.suffix == ".jsonl":
            with open_artifact(path, jsonl=True) as fh:
                for observation in self._sorted():
                    spans_to_jsonl(observation.spans, fh,
                                   run=observation.group_name)
            return path
        span_groups = self.trace_groups()
        events = chrome_trace_events(span_groups)
        events.extend(profile_trace_events(
            self.profile_groups(), start_pid=len(span_groups) + 1))
        with open_artifact(path) as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return path

    def write_metrics(self, path) -> Path:
        """Write the merged registry as Prometheus exposition text."""
        path = Path(path)
        with open_artifact(path) as fh:
            fh.write(snapshot_to_prometheus(self.merged_metrics()))
        return path

    def write_heartbeats(self, path) -> Path:
        """Write every run's heartbeat stream + violations as JSONL.

        One object per line, in canonical grid order, each tagged with
        ``"record": "heartbeat" | "violation"`` and the run's group
        name.  JSONL emission is truncation-safe: an exception mid-write
        still publishes the complete lines plus a trailer marking the
        cut.
        """
        path = Path(path)
        with open_artifact(path, jsonl=True) as fh:
            for observation in self._sorted():
                for record in observation.heartbeats:
                    payload = record.to_dict()
                    payload["record"] = "heartbeat"
                    payload["run"] = observation.group_name
                    fh.write(json.dumps(payload, sort_keys=True) + "\n")
                for violation in observation.violations:
                    payload = violation.to_dict()
                    payload["record"] = "violation"
                    payload["run"] = observation.group_name
                    fh.write(json.dumps(payload, sort_keys=True) + "\n")
        return path

    def write_profile(self, path) -> Path:
        """Write the merged wall-clock profile as a JSON document."""
        path = Path(path)
        merged = self.merged_profile()
        with open_artifact(path) as fh:
            json.dump(merged.to_dict() if merged is not None else {},
                      fh, indent=2, sort_keys=True)
        return path

    def summary(self) -> str:
        """One line for the CLI's stderr telemetry."""
        flows = sum(o.flows_traced for o in self.observations)
        line = (f"obs: {len(self.observations)} run(s), "
                f"{self.total_spans} span(s), {flows} flow(s) traced")
        if self.dropped_spans:
            line += f", {self.dropped_spans} span(s) dropped to caps"
        profiled = sum(1 for o in self.observations
                       if o.profile is not None)
        if profiled:
            merged = self.merged_profile()
            line += (f", {profiled} run(s) profiled "
                     f"({merged.events_per_sec:,.0f} ev/s)")
        beats = sum(len(o.heartbeats) for o in self.observations)
        if beats:
            line += f", {beats} heartbeat(s)"
        if self.total_violations:
            line += f", {self.total_violations} MONITOR VIOLATION(S)"
        return line
