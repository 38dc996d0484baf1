"""Wall-clock component profiling for the simulation kernel itself.

Everything else in :mod:`repro.obs` measures *simulated* time; this
module measures where *wall* time goes while the kernel executes — the
question PR 5's end-to-end benchmark numbers cannot answer (which
component is hot?) and the instrumentation the sharded-kernel roadmap
item needs to prove its scaling curve.

Design constraints (DESIGN.md §15):

* **One run loop.**  :meth:`~repro.simkit.simulator.Simulator.run`
  executes profiled and plain runs alike.  Its one per-event test,
  ``executed != checkpoint``, covers both the next sampled event and
  the ``max_events`` budget, so a detached profiler costs the loop
  nothing beyond that integer compare.
* **Stride sampling.**  Timing every event would cost two
  ``perf_counter`` calls (~220 ns) against a ~600 ns event — a 30+%
  tax.  Instead every ``stride``-th executed event is individually
  timed and attributed, and counts/self-times are scaled by ``stride``.
  Events between samples pay nothing extra: the sampled index is the
  loop's checkpoint.  Sampling is keyed to the event *index*, so two
  runs with identical event sequences sample identical events — which
  is what makes serial and parallel sweep profiles comparable
  field-for-field.
* **Attribution via bound callbacks.**  The hot callbacks are
  preresolved bound methods (``station._finish_cb``, datapath/agent/
  channel handlers), so ``fn.__self__`` identifies the component.  A
  component may override the derived name with a ``profile_component``
  attribute (stations do: ``station:<name>``).  Attribution results are
  cached per callable object.

This module imports nothing from the simulation layers; the simulator
calls into the profiler through duck-typed ``record``/``begin_run``/
``end_run`` hooks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf_counter = time.perf_counter

#: Module path -> component group for callback attribution.  Anything
#: unlisted falls back to the last module-path segment, so new layers
#: get a sensible bucket without registering here.
MODULE_COMPONENTS = {
    "repro.simkit.simulator": "kernel",
    "repro.simkit.stations": "station",
    "repro.switchsim.datapath": "datapath",
    "repro.switchsim.agent": "agent",
    "repro.switchsim.switch": "switch",
    "repro.switchsim.cpu": "switch-cpu",
    "repro.switchsim.bus": "bus",
    "repro.switchsim.ports": "ports",
    "repro.switchsim.qos": "qos",
    "repro.openflow.channel": "channel",
    "repro.openflow.pktbuffer": "buffer",
    "repro.core.mechanisms": "buffer",
    "repro.bufferpool.pool": "pool",
    "repro.controllersim.controller": "controller",
    "repro.controllersim.apps": "controller",
    "repro.netsim.link": "link",
    "repro.netsim.host": "host",
    "repro.trafficgen.pktgen": "trafficgen",
    "repro.metrics.samplers": "metrics",
    "repro.metrics.collector": "metrics",
    "repro.obs.monitor": "monitor",
    "repro.shard.transport": "shard-transport",
    "repro.shard.coordinator": "shard-transport",
}


def component_of(fn: Callable[..., Any]) -> str:
    """Attribute one callback to a component name (uncached).

    Rules, in order: an explicit ``profile_component`` attribute on the
    bound instance (or the callable itself) wins; then the bound
    instance's class module through :data:`MODULE_COMPONENTS`; then the
    bare function's module; unknown modules fall back to their last
    path segment.
    """
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        override = getattr(owner, "profile_component", None)
        if override is not None:
            return override
        module = type(owner).__module__
    else:
        override = getattr(fn, "profile_component", None)
        if override is not None:
            return override
        module = getattr(fn, "__module__", "") or ""
    mapped = MODULE_COMPONENTS.get(module)
    if mapped is not None:
        return mapped
    return module.rpartition(".")[2] or "unknown"


@dataclass
class ComponentStat:
    """One component's sampled share of the run (picklable)."""

    #: Events of this component that were individually timed.
    sampled_calls: int = 0
    #: Wall seconds across the sampled events only.
    sampled_seconds: float = 0.0

    def est_calls(self, stride: int) -> int:
        """Estimated total calls: sampled count scaled by the stride."""
        return self.sampled_calls * stride

    def est_seconds(self, stride: int) -> float:
        """Estimated total self-time: sampled time scaled by the stride."""
        return self.sampled_seconds * stride


@dataclass
class TimelinePoint:
    """One sim-rate sample: where the clocks stood at an event index."""

    #: Events executed when the sample was taken (run-local index).
    events: int
    #: Simulated clock at the sample.
    sim_time: float
    #: Wall seconds since profiling began.
    wall_time: float


@dataclass
class ProfileReport:
    """Picklable result of one (or many merged) profiled runs.

    Wall-clock fields are execution-specific; the *deterministic* fields
    — ``stride``, component names and sampled call counts, events and
    run totals — are identical for any two executions of the same event
    sequence, which is what the serial-vs-parallel equivalence test
    compares (see :meth:`deterministic_summary`).
    """

    stride: int
    events: int = 0
    runs: int = 0
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    components: Dict[str, ComponentStat] = field(default_factory=dict)
    timeline: List[TimelinePoint] = field(default_factory=list)

    # -- derived ---------------------------------------------------------
    @property
    def events_per_sec(self) -> float:
        """Overall executed events per wall second (0 before any run)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds

    @property
    def sim_rate(self) -> float:
        """Simulated seconds advanced per wall second (0 before any run)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.sim_seconds / self.wall_seconds

    def top_components(self, limit: Optional[int] = None
                       ) -> List[Tuple[str, ComponentStat]]:
        """Components ordered by sampled self-time, heaviest first.

        Ties (including the all-zero wall times of a replayed or merged
        deterministic comparison) break by name so the order is stable.
        """
        ranked = sorted(self.components.items(),
                        key=lambda item: (-item[1].sampled_seconds,
                                          item[0]))
        return ranked if limit is None else ranked[:limit]

    # -- merging (parallel sweeps) --------------------------------------
    def merge(self, other: "ProfileReport") -> None:
        """Fold another report in (components add, timelines append).

        Callers must merge in canonical grid order — never completion
        order — so float sums and timeline concatenation are
        deterministic; the obs collector guarantees this.
        """
        if other.stride != self.stride:
            raise ValueError(f"cannot merge profiles with different "
                             f"strides ({self.stride} vs {other.stride})")
        self.events += other.events
        self.runs += other.runs
        self.wall_seconds += other.wall_seconds
        self.sim_seconds += other.sim_seconds
        for name, stat in other.components.items():
            mine = self.components.get(name)
            if mine is None:
                self.components[name] = ComponentStat(
                    stat.sampled_calls, stat.sampled_seconds)
            else:
                mine.sampled_calls += stat.sampled_calls
                mine.sampled_seconds += stat.sampled_seconds
        self.timeline.extend(other.timeline)

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready rendering (the ``repro profile`` artifact)."""
        return {
            "stride": self.stride,
            "events": self.events,
            "runs": self.runs,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "events_per_sec": self.events_per_sec,
            "sim_rate": self.sim_rate,
            "components": {
                name: {
                    "sampled_calls": stat.sampled_calls,
                    "sampled_seconds": stat.sampled_seconds,
                    "est_calls": stat.est_calls(self.stride),
                    "est_seconds": stat.est_seconds(self.stride),
                }
                for name, stat in self.top_components()
            },
            "timeline": [
                {"events": p.events, "sim_time": p.sim_time,
                 "wall_time": p.wall_time}
                for p in self.timeline
            ],
        }

    def deterministic_summary(self) -> dict:
        """The fields that must match between any two executions of the
        same event sequence (wall-clock readings excluded)."""
        return {
            "stride": self.stride,
            "events": self.events,
            "runs": self.runs,
            "components": {
                name: stat.sampled_calls
                for name, stat in sorted(self.components.items())
            },
            "timeline_events": [p.events for p in self.timeline],
        }

    def format_table(self, limit: int = 12) -> str:
        """The terminal "top components by self-time" report."""
        header = (f"profile: {self.events} events in "
                  f"{self.wall_seconds:.3f}s wall "
                  f"({self.events_per_sec:,.0f} ev/s, "
                  f"{self.sim_rate:.2f} sim-s/s, "
                  f"stride {self.stride}, {self.runs} run(s))")
        lines = [header,
                 f"{'component':<20s} {'self-time':>10s} {'share':>7s} "
                 f"{'est calls':>10s} {'ns/call':>9s}"]
        total = sum(s.sampled_seconds for s in self.components.values())
        for name, stat in self.top_components(limit):
            est_s = stat.est_seconds(self.stride)
            share = (stat.sampled_seconds / total) if total > 0 else 0.0
            per_call = (stat.sampled_seconds / stat.sampled_calls * 1e9
                        if stat.sampled_calls else 0.0)
            lines.append(f"{name:<20s} {est_s:>9.4f}s {share:>6.1%} "
                         f"{stat.est_calls(self.stride):>10d} "
                         f"{per_call:>9.0f}")
        hidden = len(self.components) - min(limit, len(self.components))
        if hidden > 0:
            lines.append(f"... {hidden} more component(s)")
        return "\n".join(lines)


class ComponentProfiler:
    """Collects stride-sampled self-times from a profiled run loop.

    Attach to a simulator with
    :meth:`~repro.simkit.simulator.Simulator.attach_profiler`; the
    simulator's run loop calls :meth:`record` for every sampled
    event and :meth:`begin_run`/:meth:`end_run` around each ``run()``.
    One profiler may span several ``run()`` calls (the runner's deadline
    extends); :meth:`report` folds everything measured so far.
    """

    #: Default sampling stride: one timed event in 16 keeps the enabled
    #: profiler within the ≤15 % overhead budget on the bare event-loop
    #: benchmark (see ``benchmarks/perf_gate.py``).
    DEFAULT_STRIDE = 16

    #: One timeline point every this many *samples* (x stride events).
    TIMELINE_EVERY_SAMPLES = 256

    def __init__(self, stride: int = DEFAULT_STRIDE,
                 timeline_every_samples: int = TIMELINE_EVERY_SAMPLES):
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if timeline_every_samples < 1:
            raise ValueError(f"timeline_every_samples must be >= 1, "
                             f"got {timeline_every_samples}")
        self.stride = stride
        self.timeline_every_samples = timeline_every_samples
        self.components: Dict[str, ComponentStat] = {}
        self.timeline: List[TimelinePoint] = []
        self.events = 0
        self.runs = 0
        self.wall_seconds = 0.0
        self.sim_seconds = 0.0
        self._samples = 0
        self._next_timeline = timeline_every_samples
        #: Callable -> component name; bound methods used on the hot
        #: path are preresolved long-lived objects, so this stays small.
        self._cache: Dict[Any, str] = {}
        self._run_t0 = 0.0
        self._run_sim0 = 0.0

    # -- run lifecycle (called by Simulator.run) -----------------------
    def begin_run(self, sim_now: float) -> None:
        """Mark the start of one ``run()`` invocation."""
        self.runs += 1
        self._run_sim0 = sim_now
        self._run_t0 = _perf_counter()

    def end_run(self, sim_now: float, executed: int) -> None:
        """Fold one finished ``run()`` into the totals."""
        self.wall_seconds += _perf_counter() - self._run_t0
        self.sim_seconds += sim_now - self._run_sim0
        self.events += executed

    # -- sampling (called once per ``stride`` events) -------------------
    def record(self, fn: Callable[..., Any], elapsed: float,
               executed: int, sim_now: float) -> None:
        """Attribute one timed event and advance the sim-rate timeline."""
        cache = self._cache
        name = cache.get(fn)
        if name is None:
            name = component_of(fn)
            cache[fn] = name
        stat = self.components.get(name)
        if stat is None:
            stat = self.components[name] = ComponentStat()
        stat.sampled_calls += 1
        stat.sampled_seconds += elapsed
        self._samples += 1
        if self._samples >= self._next_timeline:
            self._next_timeline = self._samples + self.timeline_every_samples
            self.timeline.append(TimelinePoint(
                events=self.events + executed,
                sim_time=sim_now,
                wall_time=(self.wall_seconds
                           + (_perf_counter() - self._run_t0))))

    # -- results ---------------------------------------------------------
    def report(self) -> ProfileReport:
        """Everything measured so far, as picklable data."""
        return ProfileReport(
            stride=self.stride,
            events=self.events,
            runs=self.runs,
            wall_seconds=self.wall_seconds,
            sim_seconds=self.sim_seconds,
            components={name: ComponentStat(stat.sampled_calls,
                                            stat.sampled_seconds)
                        for name, stat in self.components.items()},
            timeline=list(self.timeline),
        )
