"""The hybrid execution engine: fluid table-hit traffic, discrete misses.

The paper's central structural fact is that only *miss-path* packets
ever touch the controller or the switch buffer; table-hit traffic is
pure dataplane forwarding whose per-packet simulation buys nothing but
wall-clock.  The :class:`HybridFlowDriver` exploits exactly that split:

* Every flow's **first packet** is sent discretely, byte-for-byte like
  :class:`~repro.trafficgen.PacketGenerator` would — streamed one
  queued send at a time under the sequence numbers the whole train
  would have drawn at start — so it misses, rides the ordinary
  packet_in / buffer / flow_mod machinery, and every re-request, fault
  and buffer event along the way stays a real discrete event.  On
  workloads where every packet is a flow's first (the paper's workload
  A), hybrid runs are therefore bit-identical to packet-engine runs.
* Until the flow's rules are installed path-wide, **tail packets keep
  being sent discretely one at a time** — they miss too, and the
  buffer mechanisms (Algorithm 1 lines 10–11, exhaustion degradation,
  pool squeezes) must see them individually.
* The driver watches the *last* switch's ``packet_egress`` events: a
  flow packet leaving the last switch proves every switch on the path
  holds the flow's rule.  From that instant the remaining unsent
  packets are pure hit-path traffic, and the driver advances them
  **analytically** — latency and finite-rate occupancy from
  :mod:`repro.analytic.path` — as one scheduled completion per burst
  segment.  When a segment starts, the flow's rule on every path
  switch is credited with its packets and bytes and its ``last_used``
  moves to the segment's last lookup there, so the rule idles out when
  the packet engine's would, not while the segment still runs.
  Completion credits the datapath counters, the delay tracker and the
  pktgen in bulk.
* An inter-packet gap of at least ``burst_gap`` (default: the
  controller's ``flow_idle_timeout``, the smallest silence after which
  a rule *can* idle out) ends the segment: the post-gap packet drops
  back to the discrete path, re-misses if the rule is gone, and the
  flow re-opens on its next observed egress — which is how §VI.B's
  TCP-eviction scenario keeps behaving identically under hybrid.

Aggregated packets are never delivered to the sink host and consume no
simulated CPU; DESIGN.md §16 records both deviations and the pinned
cross-engine tolerances.
"""

from __future__ import annotations

import math
import warnings
from functools import partial
from typing import Dict, List, Optional

from ..analytic.path import (arithmetic_last_egress, hit_path_latency,
                             hit_path_lookup_leads, hit_path_spacing,
                             train_last_egress)
from ..simkit import ArithmeticTimes
from ..trafficgen.pktgen import check_playable

# NOTE: nothing from repro.scenarios may be imported at module level —
# scenarios.spec imports repro.engine (for EngineSpec), so a module-level
# import here would close an import cycle through the package __init__.
# install_hybrid_drivers() imports what it needs lazily instead.

#: Pinned cross-engine tolerance: hybrid aggregate delay / throughput
#: statistics must stay within this relative deviation of packet-engine
#: results on multi-packet workloads (tested in
#: ``tests/test_hybrid_engine.py``; asserted again by the figscale
#: experiment and the CI scale-smoke job).  Miss-path quantities carry
#: no tolerance at all — they must match bit-identically.
HYBRID_DELAY_TOLERANCE = 0.15


def offered_load(workload, link_rate_bps: float) -> float:
    """ρ of one source: the workload's wire bits (lazy tails included)
    over its logical duration, as a share of ``link_rate_bps``.

    The fluid model leaves out cross-flow queueing at the source NIC,
    so it holds only while ρ < 1 (DESIGN.md §16).  A workload with bits
    but no duration is infinitely dense.
    """
    bits = 8.0 * workload.total_bytes
    duration = workload.duration
    if duration <= 0:
        return math.inf if bits else 0.0
    return bits / duration / link_rate_bps


class _FlowState:
    """Per-flow progress bookkeeping inside one driver."""

    __slots__ = ("flow_id", "times", "packets", "next_index", "open_seq",
                 "pending", "aggregating", "done")

    def __init__(self, flow_id: int):
        self.flow_id = flow_id
        #: Tail send offsets (list of floats, or ArithmeticTimes).
        self.times = None
        #: Explicit tail template packets, parallel to ``times``, each
        #: copied when it is sent (None when the workload keeps tails
        #: lazy and materializes on demand).
        self.packets: Optional[List] = None
        #: Next unsent tail index.
        self.next_index = 0
        #: Minimum ``seq_in_flow`` whose egress may (re-)open the flow —
        #: raised after a burst gap so stale egresses of pre-gap packets
        #: cannot skip the post-gap re-miss.
        self.open_seq = 0
        #: Handle of the next scheduled discrete tail send.
        self.pending = None
        #: True while an aggregate segment's completion is in flight.
        self.aggregating = False
        #: True once every packet of the flow has been accounted.
        self.done = False


class HybridFlowDriver:
    """Plays one pktgen's workload under the hybrid engine."""

    def __init__(self, testbed, pktgen, calibration, burst_gap: float):
        self.testbed = testbed
        self.pktgen = pktgen
        self.workload = pktgen.workload
        self.sim = pktgen.sim
        self.burst_gap = burst_gap
        #: This source's ρ on its data link (:func:`offered_load`).
        self.offered_load = offered_load(self.workload,
                                         calibration.data_link_rate_bps)
        self._base = 0.0
        self._started = False
        self._states: Dict[int, _FlowState] = {}
        #: First sends not yet queued, as ``(offset, state, template)``,
        #: and the sequence numbers they were reserved at start.
        self._firsts = iter(())
        self._slots = None
        self._tracker = testbed.metrics.delay_tracker
        self._datapaths = [switch.datapath for switch in testbed.switches]
        # Path model: latency and spacing depend only on the frame size,
        # so memoize per wire length (workloads are near-uniform).
        self._calibration = calibration
        self._n_switches = len(testbed.switches)
        self._path_cache: Dict[int, tuple] = {}
        #: Each path switch's ingress port for this source's flows,
        #: learned from their table misses (the rules they ride match it).
        self._in_ports: List[Optional[int]] = [None] * self._n_switches
        # Observability: engine counters on the testbed registry (shared
        # across drivers through get-or-create).
        registry = testbed.registry
        self._discrete_inc = registry.counter(
            "hybrid_packets_discrete_total").inc
        self._aggregated_inc = registry.counter(
            "hybrid_packets_aggregated_total").inc
        self._segments_inc = registry.counter("hybrid_segments_total").inc
        self._flows_inc = registry.counter(
            "hybrid_flows_aggregated_total").inc

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------
    def start(self, at: float = 0.0) -> None:
        """Stream first packets discretely; arm the open detector.

        Every entry is replayed through
        :meth:`~repro.packets.Packet.replay_copy` when it is sent,
        exactly as :meth:`PacketGenerator.start` does (a shallow copy
        sharing the immutable headers, stamps cleared), and first
        packets are sent in workload-entry order, one queued at a time
        under the sequence numbers reserved for all of them here — on
        single-packet-flow workloads the resulting event stream is
        indistinguishable from the packet engine's.
        """
        if self._started:
            raise RuntimeError("driver already started")
        check_playable(self.workload)
        self._started = True
        self._base = self.sim.now + at
        lazy_tails = getattr(self.workload, "tails", None)
        firsts = []
        for offset, packet in self.workload.entries:
            flow_id = packet.flow_id
            state = self._states.get(flow_id) if flow_id is not None \
                else None
            if state is None:
                if flow_id is not None:
                    state = _FlowState(flow_id)
                    state.times = []
                    state.packets = []
                    self._states[flow_id] = state
                firsts.append((offset, state, packet))
            else:
                state.times.append(offset)
                state.packets.append(packet)
        if lazy_tails:
            for flow_id, (_template, times) in lazy_tails.items():
                state = self._states.get(flow_id)
                if state is None:
                    continue
                if state.packets:
                    raise ValueError(
                        f"flow {flow_id} has both explicit entries and a "
                        f"lazy tail")
                state.times = times
                state.packets = None
        self._slots = self.sim.reserve(len(firsts))
        self._firsts = iter(firsts)
        self._queue_first()
        # The last switch's egress is the proof that the flow's rules
        # are installed path-wide.
        self.testbed.switches[-1].events.on("packet_egress",
                                            self._on_egress)
        for index, switch in enumerate(self.testbed.switches):
            switch.events.on("table_miss", partial(self._on_miss, index))

    def _on_miss(self, index: int, time: float, packet,
                 in_port: int) -> None:
        if packet.flow_id in self._states:
            self._in_ports[index] = in_port

    # ------------------------------------------------------------------
    # Discrete path (first packets and pre-open tails)
    # ------------------------------------------------------------------
    def _queue_first(self) -> None:
        first = next(self._firsts, None)
        if first is not None:
            offset, state, template = first
            self._slots.schedule_at(self._base + offset, self._send_first,
                                    state, template)

    def _send_first(self, state: Optional[_FlowState], template) -> None:
        self._queue_first()
        self.pktgen._send(template.replay_copy())
        self._discrete_inc()
        if state is not None:
            self._schedule_next(state)

    def _schedule_next(self, state: _FlowState) -> None:
        if state.next_index >= len(state.times):
            return
        t = self._base + state.times[state.next_index]
        now = self.sim.now
        state.pending = self.sim.schedule_at(t if t > now else now,
                                             self._send_tail, state)

    def _send_tail(self, state: _FlowState) -> None:
        state.pending = None
        index = state.next_index
        state.next_index = index + 1
        if state.packets is not None:
            packet = state.packets[index].replay_copy()
            state.packets[index] = None  # send once; free the reference
        else:
            packet = self.workload.materialize_tail_packet(state.flow_id,
                                                           index)
        self.pktgen._send(packet)
        self._discrete_inc()
        self._schedule_next(state)

    # ------------------------------------------------------------------
    # Flow-open detection and analytic advancement
    # ------------------------------------------------------------------
    def _on_egress(self, time: float, packet, out_port: int) -> None:
        flow_id = packet.flow_id
        if flow_id is None:
            return
        state = self._states.get(flow_id)
        if state is None or state.done or state.aggregating:
            return
        seq = packet.seq_in_flow
        if seq is not None and seq < state.open_seq:
            return  # stale egress of a pre-gap packet
        if state.pending is not None:
            state.pending.cancel()
            state.pending = None
        if state.next_index >= len(state.times):
            state.done = True
            return
        self._aggregate_from(state, time, packet)

    def _seq_at(self, state: _FlowState, index: int) -> int:
        if state.packets is not None:
            packet = state.packets[index]
            seq = packet.seq_in_flow if packet is not None else None
            return seq if seq is not None else index + 1
        return index + 1  # lazy tails: seq k+1 by construction

    def _wire_len_at(self, state: _FlowState, index: int) -> int:
        if state.packets is not None and state.packets[index] is not None:
            return state.packets[index].wire_len
        template, _times = self.workload.tails[state.flow_id]
        return template.wire_len

    def _path_model(self, wire_len: int) -> tuple:
        model = self._path_cache.get(wire_len)
        if model is None:
            calibration, n_switches = self._calibration, self._n_switches
            model = (hit_path_latency(calibration, n_switches, wire_len),
                     hit_path_spacing(calibration, wire_len),
                     hit_path_lookup_leads(calibration, n_switches,
                                           wire_len))
            self._path_cache[wire_len] = model
        return model

    def _aggregate_from(self, state: _FlowState, opened_at: float,
                        opener) -> None:
        """Advance one burst segment analytically from ``next_index``.

        ``opener`` is the flow packet whose egress opened the segment;
        its rule on each switch is the one the segment's packets hit.
        """
        times = state.times
        total = len(times)
        start = state.next_index
        # The segment ends at the first inter-packet gap that could let
        # the installed rule idle out.
        if isinstance(times, ArithmeticTimes):
            end = start + 1 if times.gap >= self.burst_gap else total
        else:
            end = start + 1
            while (end < total
                   and times[end] - times[end - 1] < self.burst_gap):
                end += 1
        count = end - start
        latency, spacing, leads = self._path_model(
            self._wire_len_at(state, start))
        first = max(self._base + times[start], opened_at)
        if isinstance(times, ArithmeticTimes):
            last_egress = arithmetic_last_egress(
                first, times.gap, count, latency, spacing, opened_at)
        else:
            absolute = [self._base + times[k]
                        for k in range(start + 1, end)]
            last_egress = train_last_egress(
                [first] + absolute, latency, spacing, opened_at)
        wire_bytes = sum(self._wire_len_at(state, k)
                         for k in range(start, end)) \
            if state.packets is not None \
            else count * self._wire_len_at(state, start)
        for datapath, in_port, lead in zip(self._datapaths, self._in_ports,
                                           leads):
            if in_port is not None:
                datapath.credit_hits(opener, in_port, count, wire_bytes,
                                     last_egress - lead)
        if state.packets is not None:
            for k in range(start, end):
                state.packets[k] = None  # accounted analytically
        state.next_index = end
        state.aggregating = True
        self.sim.schedule_at(last_egress, self._complete_segment, state,
                             count, wire_bytes)

    def _complete_segment(self, state: _FlowState, count: int,
                          wire_bytes: int) -> None:
        state.aggregating = False
        now = self.sim.now
        self.pktgen.packets_sent += count
        for datapath in self._datapaths:
            datapath.forward_aggregate(count, wire_bytes)
        self._tracker.record_aggregate(state.flow_id, count, now)
        self._aggregated_inc(count)
        self._segments_inc()
        if state.next_index >= len(state.times):
            state.done = True
            self._flows_inc()
            return
        # Post-gap remainder: back to the discrete path.  Only an egress
        # of the re-entry packet (or later) may re-open the flow, so the
        # re-miss — if the rule idled out — really happens.
        state.open_seq = self._seq_at(state, state.next_index)
        self._schedule_next(state)


def install_hybrid_drivers(testbed, calibration=None
                           ) -> List[HybridFlowDriver]:
    """One driver per packet generator, wired to ``testbed``.

    ``calibration`` follows :func:`~repro.scenarios.build_scenario`'s
    convention: an explicit object wins, else the spec's named
    calibration resolves.  The engine's ``burst_gap`` defaults to the
    controller's ``flow_idle_timeout`` (``inf`` when rules never idle
    out, i.e. nothing ever splits a segment).

    A source whose :func:`offered_load` reaches 1 while some flow of
    its workload has more than one packet raises a ``RuntimeWarning``:
    its aggregated delays leave the fluid model's validity region.
    Single-packet flows never aggregate, so they run exactly as on the
    packet engine at any load.
    """
    from ..scenarios.builders import _resolve_calibration
    spec = testbed.spec
    engine = spec.engine
    if not engine.is_hybrid:
        raise ValueError(f"scenario {spec.name!r} does not use the hybrid "
                         f"engine (engine={engine.name!r})")
    calibration = _resolve_calibration(spec, calibration)
    burst_gap = engine.burst_gap
    if burst_gap is None:
        idle = calibration.controller.flow_idle_timeout
        burst_gap = idle if idle and idle > 0 else math.inf
    drivers = [HybridFlowDriver(testbed, pktgen, calibration, burst_gap)
               for pktgen in testbed.pktgens]
    for driver in drivers:
        if driver.offered_load >= 1 and any(
                flow.n_packets > 1
                for flow in driver.workload.flows.values()):
            warnings.warn(
                f"hybrid engine: source {driver.pktgen.host.name} offers "
                f"ρ = {driver.offered_load:.2f} of its data link, outside "
                f"the fluid model's region ρ < 1 (DESIGN.md §16): "
                f"aggregated delays leave out queueing at the source",
                RuntimeWarning, stacklevel=2)
    return drivers
