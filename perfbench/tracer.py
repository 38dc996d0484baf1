"""Per-layer attribution for a traced pass, recorded from outside the program.

:class:`Tracer` wraps the public functions of each layer in place (the
module attributes and class methods the rest of the program calls
through) with span recorders, and attaches a
:class:`repro.obs.ComponentProfiler` to every serial run through
``run_once(on_testbed=...)`` so that ``Simulator.run`` is split by
component.  Nothing inside ``src/`` changes: uninstalling restores every
original object.

Spans nest: a layer's self time is its span time minus the time of the
spans it encloses.  The profiler times every event (stride 1) and books
each event's self time to its component: a span that ran inside the
event (a flow-table insert inside a bus event) keeps its own time.
What ``Simulator.run`` spends outside events is kernel dispatch and
books to ``simkit.run_s``.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Optional

#: Profiler component -> layer metric.  Stations carry their own names
#: (``station:<name>``) and are mapped by :func:`layer_of_component`.
COMPONENT_LAYERS = {
    "kernel": "simkit.run_s",
    "station": "simkit.run_s",
    "datapath": "switchsim.datapath_s",
    "switch": "switchsim.datapath_s",
    "ports": "switchsim.datapath_s",
    "qos": "switchsim.datapath_s",
    "switch-cpu": "switchsim.cpu_s",
    "bus": "switchsim.bus_s",
    "agent": "switchsim.agent_s",
    "link": "netsim.link_s",
    "host": "netsim.link_s",
    "channel": "netsim.link_s",
    "controller": "controllersim.app_s",
    "buffer": "core.buffer_s",
    "pool": "bufferpool.pool_s",
    "trafficgen": "trafficgen.pktgen_s",
    "metrics": "metrics.collect_s",
    "hybrid": "engine.hybrid_s",
}

#: Span name -> layer metric its self time books to.
SPAN_LAYERS = {
    "scenarios.build": "scenarios.build_s",
    "simkit.run": "simkit.run_s",
    "trafficgen.generate": "trafficgen.generate_s",
    "metrics.snapshot": "metrics.snapshot_s",
    "openflow.flowtable.insert": "openflow.flowtable.insert_s",
    "core.buffer": "core.buffer_s",
    "bufferpool.pool": "bufferpool.pool_s",
    "parallel.task": "parallel.task_self_s",
    "parallel.cache.put": "parallel.cache.put_s",
    "parallel.cache.get": "parallel.cache.get_s",
    "experiments.aggregate": "experiments.aggregate_s",
    "experiments.report": "experiments.report_s",
}

#: Registry counters summed over every label set -> layer count.
REGISTRY_COUNTS = {
    "switchsim.packet_ins": ("switch_packet_ins_sent_total",),
    "faults.injected": ("faults_dropped_total", "faults_delayed_total",
                        "faults_duplicated_total",
                        "faults_stall_dropped_total"),
    "faults.retries": ("switch_packet_in_retries_total",),
    "bufferpool.rejections": ("pool_rejected_total",),
    "openflow.pktbuffer.stores": ("pktbuf_buffered_total",),
    "engine.segments": ("hybrid_segments_total",),
}


def layer_of_component(component: str,
                       controller_stations: frozenset) -> Optional[str]:
    """The layer metric one profiler component books to (None: unknown)."""
    if component.startswith("station:"):
        station = component[len("station:"):]
        if station in controller_stations:
            return "controllersim.cpu_s"
        if station.endswith("-cpu"):
            return "switchsim.cpu_s"
        if station.endswith("-bus"):
            return "switchsim.bus_s"
        if station.endswith("ofconn-apply"):
            return "switchsim.apply_s"
        if station.endswith(".tx"):
            return "netsim.link_s"
        return None
    return COMPONENT_LAYERS.get(component)


class Tracer:
    """Span recorder plus the patches that feed it.

    ``spans`` maps a span name to ``[total_s, enclosed_s, count]``; the
    aggregates are what :meth:`layer_metrics` and the trace file use.
    """

    def __init__(self) -> None:
        self.spans: Dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts: Dict[str, int] = defaultdict(int)
        self.registry: Dict[str, int] = defaultdict(int)
        self.components: Dict[str, float] = defaultdict(float)
        self.events = 0
        self.controller_stations: set = set()
        self._stack: list = []
        self._undo: list = []
        #: Time of spans that closed directly inside ``Simulator.run``.
        self._in_run = [0.0]

    # -- spans ----------------------------------------------------------
    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``after(result, args)`` runs
        once the span has closed (for counts derived from results)."""
        stack = self._stack
        stat = self.spans[name]
        in_run = self._in_run

        def traced(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                stat[0] += elapsed
                stat[1] += frame[0]
                stat[2] += 1
                if stack:
                    stack[-1][0] += elapsed
                    if stack[-1][1] == "simkit.run":
                        in_run[0] += elapsed
            if after is not None:
                after(result, args)
            return result

        return traced

    def _replace_function(self, fn: Callable, replacement: Callable) -> None:
        """Rebind ``fn`` wherever a ``repro`` module imported it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, fn))

    def _replace_method(self, cls: type, attr: str,
                        replacement: Callable) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def span_function(self, fn: Callable, name: str,
                      after: Optional[Callable] = None) -> None:
        self._replace_function(fn, self.wrap(name, fn, after))

    def span_methods(self, cls: type, attrs, name: str,
                     after: Optional[Callable] = None) -> None:
        for attr in attrs:
            if attr in cls.__dict__:
                self._replace_method(cls, attr,
                                     self.wrap(name, cls.__dict__[attr],
                                               after))

    # -- install / uninstall -------------------------------------------
    def install(self) -> None:
        """Patch every layer boundary; :meth:`uninstall` restores them."""
        from repro.bufferpool.pool import SharedBufferPool
        from repro.core import mechanisms
        from repro.experiments import cli, runner
        from repro.metrics.collector import MetricsSuite, PathMetricsSuite
        from repro.openflow.flowtable import FlowTable
        from repro.parallel import tasks
        from repro.parallel.cache import ResultCache
        from repro.scenarios import builders
        from repro.simkit.simulator import Simulator
        from repro.trafficgen import workloads

        count = self.counts

        def count_eviction(result, _args):
            if result is not None:
                count["openflow.flowtable.evictions"] += 1

        def count_hit(result, _args):
            if result is not None:
                count["parallel.cache.hits"] += 1

        def count_bytes(_result, args):
            cache, key = args[0], args[1]
            count["parallel.cache.bytes"] += cache.path_for(key).stat().st_size

        self.span_function(builders.build_scenario, "scenarios.build")
        self.span_methods(Simulator, ("run",), "simkit.run")
        for generator in (workloads.single_packet_flows,
                          workloads.batched_multi_packet_flows,
                          workloads.flow_train_flows):
            self.span_function(generator, "trafficgen.generate")
        for suite in (MetricsSuite, PathMetricsSuite):
            self.span_methods(suite, ("snapshot",), "metrics.snapshot")
        self.span_methods(FlowTable, ("insert",),
                          "openflow.flowtable.insert", count_eviction)
        for cls in (mechanisms.BufferMechanism, mechanisms.NoBuffer,
                    mechanisms.PacketGranularityBuffer,
                    mechanisms.FlowGranularityBuffer):
            self.span_methods(cls, ("on_miss", "on_packet_out",
                                    "on_flow_mod_release"), "core.buffer")
        self.span_methods(SharedBufferPool, ("admit", "release_unit"),
                          "bufferpool.pool")
        self.span_function(tasks.execute_task_observed, "parallel.task")
        self.span_methods(ResultCache, ("put",), "parallel.cache.put",
                          count_bytes)
        self.span_methods(ResultCache, ("get",), "parallel.cache.get",
                          count_hit)
        self.span_function(runner.aggregate, "experiments.aggregate")
        self.span_function(cli._json_payload, "experiments.report")
        self._replace_function(runner.run_once,
                               self._profiled_run_once(runner.run_once))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- component profile ---------------------------------------------
    def _profiled_run_once(self, run_once: Callable) -> Callable:
        """``run_once`` with a component profiler attached to serial runs.

        Sharded runs have no single testbed and keep their own counters;
        they pass through untouched.
        """
        from repro.obs import ComponentProfiler
        in_run = self._in_run

        class SelfTimeProfiler(ComponentProfiler):
            """Times every event and books only the event's self time."""

            def __init__(self):
                super().__init__(stride=1)
                self.seen = in_run[0]

            def begin_run(self, sim_now):
                self.seen = in_run[0]
                super().begin_run(sim_now)

            def record(self, fn, elapsed, executed, sim_now):
                nested, self.seen = in_run[0] - self.seen, in_run[0]
                super().record(fn, elapsed - nested, executed, sim_now)

        def profiled(*args, **kwargs):
            scenario = kwargs.get("scenario")
            if ((scenario is not None and scenario.shard.is_active)
                    or kwargs.get("on_testbed") is not None):
                return run_once(*args, **kwargs)
            built = []

            def attach(testbed):
                profiler = SelfTimeProfiler()
                testbed.sim.attach_profiler(profiler)
                built.append((testbed, profiler))

            metrics = run_once(*args, on_testbed=attach, **kwargs)
            for testbed, profiler in built:
                self._fold(testbed, profiler)
            return metrics

        return profiled

    def _fold(self, testbed, profiler) -> None:
        report = profiler.report()
        self.events += report.events
        for name, stat in report.components.items():
            self.components[name] += stat.est_seconds(report.stride)
        self.controller_stations.add(testbed.controller.station.name)
        if testbed.registry is not None:
            for (name, _labels), value in \
                    testbed.registry.snapshot().counters.items():
                self.registry[name] += value

    # -- results ---------------------------------------------------------
    def self_time(self, span: str) -> float:
        total, enclosed, _count = self.spans.get(span, (0.0, 0.0, 0))
        return total - enclosed

    def layer_metrics(self, traced_wall: float) -> Dict[str, float]:
        """Per-layer numbers of everything traced so far.

        ``traced_wall`` is the wall time of the traced section; what no
        layer covers of it is ``unattributed_s``.
        """
        out: Dict[str, float] = defaultdict(float)
        for span, layer in SPAN_LAYERS.items():
            out[layer] += self.self_time(span)
        # Split Simulator.run's self time by component; what no event
        # accounts for is the kernel's own dispatch.
        run_total = self.spans["simkit.run"][0]
        stations = frozenset(self.controller_stations)
        for component, seconds in self.components.items():
            layer = layer_of_component(component, stations)
            out["simkit.run_s"] -= seconds
            if layer is not None:
                out[layer] += seconds
        self_total = sum(out.values())
        out["scenarios.builds"] = self.spans["scenarios.build"][2]
        out["simkit.events"] = self.events
        out["simkit.ns_per_event"] = (run_total / self.events * 1e9
                                      if self.events else 0.0)
        for layer, counters in REGISTRY_COUNTS.items():
            out[layer] = sum(self.registry.get(c, 0) for c in counters)
        # Every packet a switch takes in is eventually forwarded (from
        # the fast path or after a packet_out) or dropped.
        misses = self.registry.get("switch_table_misses_total", 0)
        handled = (self.registry.get("switch_packets_forwarded_total", 0)
                   + self.registry.get("switch_packets_dropped_total", 0))
        out["switchsim.miss_ratio"] = misses / handled if handled else 0.0
        discrete = self.registry.get("hybrid_packets_discrete_total", 0)
        aggregated = self.registry.get("hybrid_packets_aggregated_total", 0)
        out["engine.discrete_share"] = (discrete / (discrete + aggregated)
                                        if discrete + aggregated else 0.0)
        for name in ("openflow.flowtable.evictions", "parallel.cache.hits",
                     "parallel.cache.bytes"):
            out[name] = self.counts.get(name, 0)
        out["parallel.task_s"] = self.spans["parallel.task"][0]
        out.pop("parallel.task_self_s")
        out["unattributed_s"] = traced_wall - self_total
        return dict(out)

    def summary(self) -> dict:
        """The span aggregates and component times, for the run record."""
        return {
            "spans": {name: {"total_s": total, "self_s": total - enclosed,
                             "count": count}
                      for name, (total, enclosed, count)
                      in sorted(self.spans.items())},
            "components_s": dict(sorted(self.components.items())),
            "registry": dict(sorted(self.registry.items())),
            "events": self.events,
        }
