"""The switch datapath: lookup pipeline, action execution, egress.

Pipeline for one arriving packet:

1. ingress stamp + ``packet_ingress`` event,
2. datapath CPU work (with batching discount),
3. flow-table lookup — **hit**: apply the entry's actions and transmit;
   **miss**: hand the packet to the OpenFlow agent (the paper's subject).

Egress stamps ``switch_out_at``, which together with ``switch_in_at``
yields the paper's flow-setup / forwarding delay metrics.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, TYPE_CHECKING

from ..obs.registry import MetricsRegistry
from ..openflow import (DropAction, FlowEntry, FlowTable, OutputAction,
                        PortNo)
from ..packets import Packet
from ..simkit import EventEmitter, Simulator
from .cache import MicroflowCache
from .config import SwitchConfig
from .cpu import SwitchCpu
from .ports import SwitchPort

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .agent import OpenFlowAgent


class Datapath:
    """Flow-table pipeline and port fabric of one switch."""

    def __init__(self, sim: Simulator, config: SwitchConfig, cpu: SwitchCpu,
                 events: EventEmitter,
                 registry: Optional[MetricsRegistry] = None,
                 **metric_labels: object):
        self.sim = sim
        self.config = config
        self.cpu = cpu
        self.events = events
        # Every expiry the table sees (its sweep, a lookup that finds a
        # dead rule, a DELETE's pre-sweep) becomes one flow_expired event.
        self.table = FlowTable(capacity=config.flow_table_capacity,
                               eviction=config.flow_table_eviction,
                               on_expire=partial(events.emit,
                                                 "flow_expired"))
        self.cache = MicroflowCache(config.microflow_cache_capacity)
        self.ports: Dict[int, SwitchPort] = {}
        self._agent: Optional["OpenFlowAgent"] = None
        # Registry counters: packets transmitted out a port, packets
        # that missed every table entry, packets discarded by any path.
        registry = registry if registry is not None else MetricsRegistry()
        self.packets_forwarded = registry.counter(
            "switch_packets_forwarded_total", **metric_labels)
        self.packets_missed = registry.counter(
            "switch_table_misses_total", **metric_labels)
        self.packets_dropped = registry.counter(
            "switch_packets_dropped_total", **metric_labels)
        # Per-packet call sites bump counters through preresolved bound
        # methods — one call, no attribute chain.
        self._forwarded_inc = self.packets_forwarded.inc
        self._missed_inc = self.packets_missed.inc
        self._dropped_inc = self.packets_dropped.inc
        self._emit = events.emit
        self._sweep_handle = sim.schedule(config.expiry_sweep_interval,
                                          self._expiry_sweep)

    def bind_agent(self, agent: "OpenFlowAgent") -> None:
        """Attach the OpenFlow agent that handles table misses."""
        self._agent = agent

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------
    def add_port(self, port: SwitchPort) -> None:
        """Register a port on this datapath."""
        if port.port_no in self.ports:
            raise ValueError(f"port {port.port_no} already exists")
        self.ports[port.port_no] = port

    # ------------------------------------------------------------------
    # Ingress path
    # ------------------------------------------------------------------
    def ingress(self, packet: Packet, in_port: int) -> None:
        """Entry point wired to each port's inbound link."""
        now = self.sim._now
        if packet.switch_in_at is None:
            packet.switch_in_at = now
        self._emit("packet_ingress", now, packet, in_port)
        if self.cache.enabled:
            self.cpu.execute_datapath(self.config.dp_cache_hit_cost,
                                      self._after_cache_lookup,
                                      (packet, in_port))
        else:
            self.cpu.execute_datapath(self.config.dp_cost_per_packet,
                                      self._after_lookup,
                                      (packet, in_port))

    def _after_cache_lookup(self, payload: tuple) -> None:
        packet, in_port = payload
        now = self.sim._now
        entry = self.cache.lookup(packet, in_port, self.table.generation,
                                  now)
        if entry is not None:
            # Fast path: the table is bypassed but the rule's liveness
            # bookkeeping must stay honest.
            entry.touch(now, packet.wire_len)
            self._apply_actions(packet, in_port, entry)
            return
        # Slow path: pay the full datapath cost on top of the probe.
        self.cpu.execute_datapath(self.config.dp_cost_per_packet,
                                  self._after_lookup, payload)

    def _after_lookup(self, payload: tuple) -> None:
        packet, in_port = payload
        entry = self.table.lookup(packet, in_port, self.sim._now)
        if entry is not None:
            if self.cache.enabled:
                self.cache.store(packet, in_port, self.table.generation,
                                 entry)
            self._apply_actions(packet, in_port, entry)
        else:
            self._missed_inc()
            self._emit("table_miss", self.sim._now, packet, in_port)
            if self._agent is None:
                self.drop(packet, "no agent bound")
            else:
                self._agent.handle_miss(packet, in_port)

    def _apply_actions(self, packet: Packet, in_port: int,
                       entry: FlowEntry) -> None:
        forwarded = False
        for action in entry.actions:
            if isinstance(action, OutputAction):
                out_port = action.port
                if out_port == PortNo.IN_PORT:
                    out_port = in_port
                self.egress(packet, out_port)
                forwarded = True
            elif isinstance(action, DropAction):
                self.drop(packet, "drop action")
                return
        if not forwarded:
            self.drop(packet, "no output action")

    # ------------------------------------------------------------------
    # Egress path
    # ------------------------------------------------------------------
    def egress(self, packet: Packet, out_port: int) -> None:
        """Queue CPU egress work, then transmit out ``out_port``."""
        self.cpu.execute(self.config.egress_cost_per_packet,
                         self._transmit, (packet, out_port))

    def _transmit(self, payload: tuple) -> None:
        packet, out_port = payload
        port = self.ports.get(out_port)
        if port is None or not port.has_egress:
            self.drop(packet, f"unknown port {out_port}")
            return
        now = self.sim._now
        packet.switch_out_at = now
        self._forwarded_inc()
        self._emit("packet_egress", now, packet, out_port)
        port.transmit(packet)

    def forward_aggregate(self, count: int, wire_bytes: int = 0) -> None:
        """Credit ``count`` analytically-advanced table-hit packets.

        The hybrid engine's bulk counterpart of ``count`` individual
        ingress → lookup → egress traversals: the forwarded counter and
        the microflow cache's hit accounting advance in one call, and a
        single ``aggregate_forward`` event carries the packet and byte
        totals for observers.  No CPU time is charged — by construction
        these packets took the hit path, whose cost the aggregate's
        analytic latency/spacing model already folded in.
        """
        if count <= 0:
            return
        self.packets_forwarded.inc(count)
        if self.cache.enabled:
            self.cache.credit_aggregate(count)
        self._emit("aggregate_forward", self.sim._now, count, wire_bytes)

    def credit_hits(self, packet: Packet, in_port: int, count: int,
                    wire_bytes: int, last_lookup: float) -> None:
        """Credit ``count`` analytically-advanced hits to their rule.

        The hybrid engine's per-rule counterpart of
        :meth:`forward_aggregate`, called when a segment starts: the
        rule ``packet`` hits on ``in_port`` gains the segment's packets
        and bytes, and its ``last_used`` moves to ``last_lookup`` (the
        segment's last lookup here), so it cannot idle out while the
        segment runs.  The table's lookup and hit counters grow too,
        unless the microflow cache would have answered those lookups.
        """
        table = self.table
        entry = table.find(packet, in_port, self.sim._now)
        if entry is None:
            return
        entry.credit(count, wire_bytes, last_lookup)
        if not self.cache.enabled:
            table.lookups += count
            table.hits += count

    def flood(self, packet: Packet, in_port: int) -> None:
        """Transmit out every port except ``in_port``."""
        for port_no in self.ports:
            if port_no != in_port:
                self.egress(packet, port_no)

    def drop(self, packet: Packet, reason: str) -> None:
        """Discard ``packet``, counting it and notifying listeners."""
        self._dropped_inc()
        self._emit("packet_drop", self.sim._now, packet, reason)

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    def _expiry_sweep(self) -> None:
        self.table.expire(self.sim.now)
        self._sweep_handle = self.sim.schedule(
            self.config.expiry_sweep_interval, self._expiry_sweep)

    def shutdown(self) -> None:
        """Cancel the periodic sweep (end of run)."""
        self._sweep_handle.cancel()

    def unwire(self) -> None:
        """Drop the agent and the table's expiry listener (end of run)."""
        self._agent = None
        self.table.on_expire = None
