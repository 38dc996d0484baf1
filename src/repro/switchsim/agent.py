"""The switch-side OpenFlow agent.

Owns the buffer mechanism (the paper's subject) and the control-plane
message paths:

* **miss path** (Algorithm 1 territory): ask the mechanism what to do with
  a table-miss packet, charge buffer-operation CPU time, move the required
  bytes across the ASIC↔CPU bus, build the ``packet_in``, and send it.
* **reply path** (Algorithm 2 territory): parse ``flow_mod`` /
  ``packet_out`` on the CPU, move them down the bus, install rules and
  release buffered packets through the mechanism.

Every stage charges the shared switch CPU and bus, so large no-buffer
messages contend with everything else — the effect the paper measures.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..core import BufferMechanism, FlowGranularityBuffer
from ..obs.registry import MetricsRegistry
from ..openflow import (ControlChannel, ErrorMsg, ErrorType, FlowEntry,
                        FlowMod, FlowModCommand, FlowRemoved, FlowStatsEntry,
                        FlowStatsReply, FlowStatsRequest, GetConfigReply,
                        GetConfigRequest, OutputAction, PacketIn, PacketOut,
                        PortNo, PortStatsEntry, PortStatsReply,
                        PortStatsRequest, BarrierReply, BarrierRequest,
                        EchoReply,
                        EchoRequest, FeaturesReply, FeaturesRequest, Hello,
                        OFMessage, OFP_NO_BUFFER, SetConfig)
from ..packets import Packet
from ..simkit import EventEmitter, ServiceStation, Simulator
from .bus import AsicCpuBus
from .config import SwitchConfig
from .cpu import SwitchCpu
from .datapath import Datapath

#: Descriptor bytes accompanying any frame fragment across the bus.
BUS_DESCRIPTOR_LEN = 32


class OpenFlowAgent:
    """Control-plane half of the switch."""

    def __init__(self, sim: Simulator, config: SwitchConfig,
                 cpu: SwitchCpu, bus: AsicCpuBus, datapath: Datapath,
                 mechanism: BufferMechanism, channel: ControlChannel,
                 events: EventEmitter, datapath_id: int = 1,
                 registry: Optional[MetricsRegistry] = None,
                 **metric_labels: object):
        self.sim = sim
        self.config = config
        self.cpu = cpu
        self.bus = bus
        self.datapath = datapath
        self.mechanism = mechanism
        self.channel = channel
        self.events = events
        self.datapath_id = datapath_id
        #: The connection-handler thread: flow_mod installs and packet_out
        #: executions are applied strictly in arrival order through this
        #: single-server station, as on a real OpenFlow connection.  Its
        #: busy time counts toward switch usage.
        self.apply_station = ServiceStation(sim, "ofconn-apply", servers=1)
        # Registry counters, read as ``agent.packet_ins_sent.value``.
        registry = registry if registry is not None else MetricsRegistry()
        # Kept for lazily-labelled counters (per-partition buffer
        # rejections can only be named when a rejection happens).
        self._registry = registry
        self._metric_labels = dict(metric_labels)
        counter = lambda name: registry.counter(name, **metric_labels)
        self.packet_ins_sent = counter("switch_packet_ins_sent_total")
        self.retries_sent = counter("switch_packet_in_retries_total")
        self.flow_mods_applied = counter("switch_flow_mods_applied_total")
        self.packet_outs_applied = counter("switch_packet_outs_applied_total")
        self.errors_sent = counter("switch_errors_sent_total")
        self.flow_removed_sent = counter("switch_flow_removed_sent_total")
        self.buffer_ageout_drops = counter("switch_buffer_ageout_drops_total")
        self.misses_dropped_disconnected = counter(
            "switch_misses_dropped_disconnected_total")
        self.misses_flooded_disconnected = counter(
            "switch_misses_flooded_disconnected_total")
        # The per-flow-setup counters bump through preresolved bound
        # methods; the rest are cold enough to go through the attribute.
        self._packet_ins_sent_inc = self.packet_ins_sent.inc
        self._retries_sent_inc = self.retries_sent.inc
        self._flow_mods_applied_inc = self.flow_mods_applied.inc
        self._packet_outs_applied_inc = self.packet_outs_applied.inc
        channel.bind_switch(self.handle_controller_message)
        datapath.bind_agent(self)
        events.on("flow_expired", self._on_flow_gone)
        events.on("flow_evicted", self._on_flow_gone)
        if isinstance(mechanism, FlowGranularityBuffer):
            mechanism.set_retry_sender(self._send_retry)
        self._ageout_handle = None
        if config.buffer_ageout > 0:
            self._ageout_handle = sim.schedule(
                config.buffer_ageout_interval, self._ageout_sweep)
        #: Connection liveness (OpenFlow fail-secure / fail-standalone).
        self.connected = True
        self._last_controller_message = sim.now
        self._probe_handle = None
        if config.connection_probe_interval > 0:
            self._probe_handle = sim.schedule(
                config.connection_probe_interval, self._connection_probe)

    # ------------------------------------------------------------------
    # Miss path (switch -> controller)
    # ------------------------------------------------------------------
    def handle_miss(self, packet: Packet, in_port: int) -> None:
        """Run the buffer mechanism on one table-miss packet."""
        if not self.connected:
            # The spec's connection-interruption behaviour: fail-secure
            # drops misses; fail-standalone degrades to flooding.
            if self.config.fail_mode == "standalone":
                self.misses_flooded_disconnected.inc()
                self.datapath.flood(packet, in_port)
            else:
                self.misses_dropped_disconnected.inc()
                self.datapath.drop(packet,
                                   "fail-secure: controller unreachable")
            return
        decision = self.mechanism.on_miss(packet, in_port, self.sim.now)
        ops_cost = self.config.buffer_ops_cost(decision.ops.total)
        if decision.stored:
            self.events.emit("buffer_stored", self.sim.now, packet,
                             decision.buffer_id)
        elif decision.rejected:
            # Label which partition (pool ledger) refused the packet so
            # exhaustion is attributable; private buffers land under the
            # "private" partition.
            self._registry.counter(
                "switch_buffer_rejections_total",
                partition=decision.partition or "private",
                **self._metric_labels).inc()
        if not decision.send_packet_in:
            # Flow-granularity subsequent packet: buffered silently
            # (Algorithm 1 line 11) — only bookkeeping CPU is charged.
            if ops_cost > 0:
                self.cpu.execute(ops_cost)
            return
        message = PacketIn(packet=packet, in_port=in_port,
                           buffer_id=decision.buffer_id,
                           data_len=decision.data_len)
        latency = self.config.upcall_latency
        if isinstance(self.mechanism, FlowGranularityBuffer):
            latency += self.config.flow_buffer_miss_latency
        self.sim.schedule(latency, self._bus_up, message, ops_cost)

    def _send_retry(self, packet: Packet, buffer_id: int) -> None:
        """Algorithm 1 line 13: timeout re-request for a pending flow."""
        message = PacketIn(packet=packet, in_port=0, buffer_id=buffer_id,
                           data_len=packet.leading_bytes(
                               getattr(self.mechanism, "miss_send_len", 128)),
                           is_retry=True)
        self._retries_sent_inc()
        self.sim.schedule(self.config.upcall_latency,
                          self._bus_up, message, 0.0)

    def _bus_up(self, message: PacketIn, ops_cost: float) -> None:
        size = BUS_DESCRIPTOR_LEN + message.data_len
        self.bus.transfer_up(size, self._build_packet_in,
                             (message, ops_cost))

    def _build_packet_in(self, payload: tuple) -> None:
        message, ops_cost = payload
        cost = self.config.pkt_in_cost(message.data_len) + ops_cost
        self.cpu.execute(cost, self._emit_packet_in, message)

    def _emit_packet_in(self, message: PacketIn) -> None:
        self._packet_ins_sent_inc()
        self.events.emit("packet_in_sent", self.sim.now, message)
        self.channel.send_to_controller(message)

    # ------------------------------------------------------------------
    # Reply path (controller -> switch)
    # ------------------------------------------------------------------
    def handle_controller_message(self, message: OFMessage) -> None:
        """Channel delivery callback — fires at wire-arrival time."""
        self._last_controller_message = self.sim.now
        if not self.connected:
            self.connected = True
            self.events.emit("controller_reconnected", self.sim.now)
        if isinstance(message, (FlowMod, PacketOut)):
            self.events.emit("reply_arrived", self.sim.now, message)
        if isinstance(message, FlowMod):
            self.cpu.execute(self.config.flow_mod_cost,
                             self._downcall_flow_mod, message)
        elif isinstance(message, PacketOut):
            self.cpu.execute(self.config.pkt_out_cost(message.data_len),
                             self._downcall_packet_out, message)
        elif isinstance(message, EchoRequest):
            self.channel.send_to_controller(
                EchoReply(payload_len=message.payload_len,
                          in_reply_to=message.xid))
        elif isinstance(message, FeaturesRequest):
            self.channel.send_to_controller(FeaturesReply(
                datapath_id=self.datapath_id,
                n_buffers=self.mechanism.capacity,
                ports=tuple(self.datapath.ports),
                in_reply_to=message.xid))
        elif isinstance(message, BarrierRequest):
            self.channel.send_to_controller(
                BarrierReply(in_reply_to=message.xid))
        elif isinstance(message, SetConfig):
            self._apply_set_config(message)
        elif isinstance(message, GetConfigRequest):
            self.channel.send_to_controller(GetConfigReply(
                miss_send_len=getattr(self.mechanism, "miss_send_len", 0),
                in_reply_to=message.xid))
        elif isinstance(message, FlowStatsRequest):
            self._answer_flow_stats(message)
        elif isinstance(message, PortStatsRequest):
            self._answer_port_stats(message)
        elif isinstance(message, Hello):
            self.channel.send_to_controller(Hello(in_reply_to=message.xid))
        # Unknown messages are silently ignored, as real agents do for
        # unsupported optional types.

    def _apply_set_config(self, message: SetConfig) -> None:
        if hasattr(self.mechanism, "miss_send_len"):
            self.mechanism.miss_send_len = message.miss_send_len
        self.events.emit("config_set", self.sim.now, message)

    def _answer_flow_stats(self, message: FlowStatsRequest) -> None:
        entries = tuple(
            FlowStatsEntry(match=entry.match, priority=entry.priority,
                           duration=self.sim.now - entry.installed_at,
                           packet_count=entry.packet_count,
                           byte_count=entry.byte_count)
            for entry in self.datapath.table.entries()
            if message.match.covers(entry.match))
        cost = self.config.flow_stats_cost_per_entry * max(len(entries), 1)
        reply = FlowStatsReply(entries=entries, in_reply_to=message.xid)
        self.cpu.execute(cost, self.channel.send_to_controller, reply)

    def _answer_port_stats(self, message: PortStatsRequest) -> None:
        ports = self.datapath.ports
        wanted = (ports.values() if message.port_no == 0xFFFF
                  else [ports[message.port_no]]
                  if message.port_no in ports else [])
        entries = tuple(
            PortStatsEntry(port_no=port.port_no,
                           rx_packets=port.rx_packets,
                           tx_packets=port.tx_packets,
                           rx_bytes=port.rx_bytes, tx_bytes=port.tx_bytes,
                           tx_dropped=port.tx_drops)
            for port in wanted)
        cost = self.config.flow_stats_cost_per_entry * max(len(entries), 1)
        reply = PortStatsReply(entries=entries, in_reply_to=message.xid)
        self.cpu.execute(cost, self.channel.send_to_controller, reply)

    def _downcall_flow_mod(self, message: FlowMod) -> None:
        self.apply_station.submit(message, self.config.apply_flow_mod_cost,
                                  self._schedule_flow_mod_downcall)

    def _schedule_flow_mod_downcall(self, message: FlowMod) -> None:
        self.sim.schedule(self.config.downcall_latency,
                          self._bus_down_flow_mod, message)

    def _bus_down_flow_mod(self, message: FlowMod) -> None:
        self.bus.transfer_down(message.wire_len, self._apply_flow_mod,
                               message)

    def _apply_flow_mod(self, message: FlowMod) -> None:
        self._flow_mods_applied_inc()
        if message.command in (FlowModCommand.DELETE,
                               FlowModCommand.DELETE_STRICT):
            strict = (message.priority
                      if message.command is FlowModCommand.DELETE_STRICT
                      else None)
            removed = self.datapath.table.remove(
                message.match, strict_priority=strict, now=self.sim.now)
            self.events.emit("flows_deleted", self.sim.now, message.match,
                             removed)
            return
        entry = FlowEntry(match=message.match, actions=message.actions,
                          priority=message.priority,
                          idle_timeout=message.idle_timeout,
                          hard_timeout=message.hard_timeout,
                          cookie=message.cookie,
                          send_flow_removed=message.send_flow_removed)
        evicted = self.datapath.table.insert(entry, self.sim.now)
        self.events.emit("flow_installed", self.sim.now, entry)
        if evicted is not None:
            self.events.emit("flow_evicted", self.sim.now, evicted)
        if message.buffer_id != OFP_NO_BUFFER:
            result = self.mechanism.on_flow_mod_release(message, self.sim.now)
            self._forward_released(message.actions, result.packets,
                                   result.unknown, message)

    def _downcall_packet_out(self, message: PacketOut) -> None:
        self.apply_station.submit(
            message, self.config.apply_pkt_out_cost(message.data_len),
            self._schedule_packet_out_downcall)

    def _schedule_packet_out_downcall(self, message: PacketOut) -> None:
        self.sim.schedule(self.config.downcall_latency,
                          self._bus_down_packet_out, message)

    def _bus_down_packet_out(self, message: PacketOut) -> None:
        size = BUS_DESCRIPTOR_LEN + max(message.data_len, 1)
        self.bus.transfer_down(size, self._apply_packet_out, message)

    def _apply_packet_out(self, message: PacketOut) -> None:
        result = self.mechanism.on_packet_out(message, self.sim.now)
        ops_cost = self.config.buffer_ops_cost(result.ops.total)
        self._packet_outs_applied_inc()
        if ops_cost > 0:
            self.cpu.execute(ops_cost)
        self._forward_released(message.actions, result.packets,
                               result.unknown, message)

    def _on_flow_gone(self, time: float, entry: FlowEntry) -> None:
        """A rule expired or was evicted; notify the controller if asked."""
        if not entry.send_flow_removed:
            return
        reason = 1 if (entry.hard_timeout > 0
                       and time - entry.installed_at
                       >= entry.hard_timeout) else 0
        self.flow_removed_sent.inc()
        self.channel.send_to_controller(FlowRemoved(
            match=entry.match, cookie=entry.cookie,
            priority=entry.priority, reason=reason,
            duration=time - entry.installed_at,
            packet_count=entry.packet_count,
            byte_count=entry.byte_count))

    def _connection_probe(self) -> None:
        """Keepalive: probe the controller and detect prolonged silence."""
        silent_for = self.sim.now - self._last_controller_message
        if self.connected and silent_for >= self.config.connection_timeout:
            self.connected = False
            self.events.emit("controller_disconnected", self.sim.now)
        # Probe regardless of state: any reply restores the connection.
        self.channel.send_to_controller(EchoRequest(payload_len=8))
        self._probe_handle = self.sim.schedule(
            self.config.connection_probe_interval, self._connection_probe)

    def _ageout_sweep(self) -> None:
        """Drop buffered packets whose packet_out never came."""
        # The handle that fired this sweep is consumed; clear it so a
        # force_buffer_ageout() called from a buffer_aged_out listener
        # below owns the slot — re-arming unconditionally at the end
        # would leave that forced handle live but untracked (two sweep
        # chains, double expiry, and shutdown() cancelling only one).
        self._ageout_handle = None
        cutoff = self.sim.now - self.config.buffer_ageout
        expired = self.mechanism.buffer.expire_older_than(cutoff,
                                                          now=self.sim.now)
        self.buffer_ageout_drops.inc(len(expired))
        for buffer_id in expired:
            self.events.emit("buffer_aged_out", self.sim.now, buffer_id)
        if self._ageout_handle is None:
            self._ageout_handle = self.sim.schedule(
                self.config.buffer_ageout_interval, self._ageout_sweep)

    def force_buffer_ageout(self, ageout: float,
                            interval: Optional[float] = None) -> None:
        """Re-arm the ageout sweep with a (typically tighter) budget.

        Fault-injection hook (:mod:`repro.faults`): replaces the
        config's ``buffer_ageout``/``buffer_ageout_interval`` and
        reschedules the sweep, so a run can be put under forced expiry
        pressure without rebuilding the switch.  The sweep interval
        defaults to half the budget so expiry lag stays proportional.
        """
        if ageout <= 0:
            raise ValueError(f"ageout must be positive, got {ageout}")
        if interval is None:
            interval = min(self.config.buffer_ageout_interval,
                           ageout / 2) or ageout / 2
        self.config = dataclasses.replace(
            self.config, buffer_ageout=ageout,
            buffer_ageout_interval=interval)
        if self._ageout_handle is not None:
            self._ageout_handle.cancel()
        self._ageout_handle = self.sim.schedule(interval,
                                                self._ageout_sweep)

    def shutdown(self) -> None:
        """Cancel periodic sweeps (end of run)."""
        if self._ageout_handle is not None:
            self._ageout_handle.cancel()
        if self._probe_handle is not None:
            self._probe_handle.cancel()

    def _forward_released(self, actions: tuple, packets: tuple,
                          unknown: bool, message: OFMessage) -> None:
        if unknown:
            self.errors_sent.inc()
            self.channel.send_to_controller(ErrorMsg(
                error_type=ErrorType.BUFFER_UNKNOWN,
                in_reply_to=message.xid))
            return
        out_ports = [a.port for a in actions if isinstance(a, OutputAction)]
        for packet in packets:
            self.events.emit("buffer_released", self.sim.now, packet)
            for port in out_ports:
                if port == PortNo.FLOOD:
                    in_port = getattr(message, "in_port", -1)
                    self.datapath.flood(packet, in_port)
                else:
                    self.datapath.egress(packet, port)
