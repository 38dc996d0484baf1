"""The controller process (Floodlight analogue).

Handles ``packet_in`` messages on a multi-core CPU whose per-message cost
scales with the enclosed bytes — full frames are expensive to capture
fields from, buffered header fragments are cheap (paper §IV.B).  Replies
(``flow_mod`` + ``packet_out``) leave after a fixed decision latency.
"""

from __future__ import annotations

from typing import Optional

from ..obs.registry import MetricsRegistry
from ..openflow import (ControlChannel, EchoReply, EchoRequest, ErrorMsg,
                        FeaturesReply, FeaturesRequest, FlowRemoved,
                        FlowStatsReply, Hello, OFMessage, PacketIn,
                        PortStatsReply)
from ..simkit import EventEmitter, ServiceStation, Simulator
from .apps import Decision, ReactiveForwardingApp
from .config import ControllerConfig


class Controller:
    """A reactive SDN controller managing one or more control channels.

    Every switch joins through :meth:`attach_channel`, which gives it a
    datapath id the forwarding app uses to scope its location lookups.
    """

    def __init__(self, sim: Simulator, config: ControllerConfig,
                 app: Optional[ReactiveForwardingApp] = None,
                 name: str = "floodlight",
                 registry: Optional[MetricsRegistry] = None):
        self.sim = sim
        self.config = config
        self.name = name
        self.app = app if app is not None else ReactiveForwardingApp(
            idle_timeout=config.flow_idle_timeout,
            hard_timeout=config.flow_hard_timeout)
        self.events = EventEmitter()
        self.station = ServiceStation(sim, f"{name}-cpu",
                                      servers=config.cpu_cores)
        #: Attached channels as (channel, datapath_id) pairs.
        self._channels: list = []
        # Registry counters, read as ``controller.flow_mods_sent.value``.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.packet_ins_handled = self.registry.counter(
            "controller_packet_ins_handled_total", controller=name)
        self.flow_mods_sent = self.registry.counter(
            "controller_flow_mods_sent_total", controller=name)
        self.packet_outs_sent = self.registry.counter(
            "controller_packet_outs_sent_total", controller=name)
        self.errors_received = self.registry.counter(
            "controller_errors_received_total", controller=name)
        self.flow_removed_received = self.registry.counter(
            "controller_flow_removed_received_total", controller=name)
        #: The latest FlowStatsReply / PortStatsReply per datapath id.
        self.flow_stats: dict = {}
        self.port_stats: dict = {}
        self._echo_handle = None
        if config.echo_interval > 0:
            self._echo_handle = sim.schedule(config.echo_interval,
                                             self._send_echo)

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------
    def attach_channel(self, channel: ControlChannel,
                       datapath_id: int) -> None:
        """Manage one more switch over ``channel``."""
        self._channels.append((channel, datapath_id))
        channel.bind_controller(
            lambda message: self.handle_message(message, channel,
                                                datapath_id))

    def start_handshake(self) -> None:
        """Begin the OpenFlow session(s) (hello + features request)."""
        for channel, _dpid in self._channels:
            channel.send_to_switch(Hello())
            channel.send_to_switch(FeaturesRequest())

    def request_flow_stats(self, datapath_id: int = 1,
                           match=None) -> None:
        """Ask one switch for its per-rule statistics."""
        from ..openflow import FlowStatsRequest, Match
        for channel, dpid in self._channels:
            if dpid == datapath_id:
                channel.send_to_switch(FlowStatsRequest(
                    match=match if match is not None else Match()))
                return
        raise KeyError(f"no channel for datapath {datapath_id}")

    def request_port_stats(self, datapath_id: int = 1,
                           port_no: int = 0xFFFF) -> None:
        """Ask one switch for its port counters."""
        from ..openflow import PortStatsRequest
        for channel, dpid in self._channels:
            if dpid == datapath_id:
                channel.send_to_switch(PortStatsRequest(port_no=port_no))
                return
        raise KeyError(f"no channel for datapath {datapath_id}")

    def set_miss_send_len(self, miss_send_len: int,
                          datapath_id: int = 1) -> None:
        """Configure how many bytes of buffered packets a switch sends."""
        from ..openflow import SetConfig
        for channel, dpid in self._channels:
            if dpid == datapath_id:
                channel.send_to_switch(
                    SetConfig(miss_send_len=miss_send_len))
                return
        raise KeyError(f"no channel for datapath {datapath_id}")

    def _send_echo(self) -> None:
        for channel, _dpid in self._channels:
            channel.send_to_switch(EchoRequest())
        self._echo_handle = self.sim.schedule(self.config.echo_interval,
                                              self._send_echo)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle_message(self, message: OFMessage, channel: ControlChannel,
                       datapath_id: int) -> None:
        """Channel delivery callback — fires at wire-arrival time."""
        if isinstance(message, PacketIn):
            self.events.emit("packet_in_received", self.sim.now, message)
            service = self.config.service_time(message.data_len,
                                               self.station.backlog)
            self.station.submit((message, channel, datapath_id), service,
                                self._decide)
        elif isinstance(message, EchoRequest):
            channel.send_to_switch(
                EchoReply(payload_len=message.payload_len,
                          in_reply_to=message.xid))
        elif isinstance(message, ErrorMsg):
            self.errors_received.inc()
            self.events.emit("error_received", self.sim.now, message)
        elif isinstance(message, FlowRemoved):
            self.flow_removed_received.inc()
            self.events.emit("flow_removed", self.sim.now, message,
                             datapath_id)
            self.station.submit(message, self.config.housekeeping_cost)
        elif isinstance(message, FlowStatsReply):
            self.flow_stats[datapath_id] = message
            self.events.emit("flow_stats", self.sim.now, message,
                             datapath_id)
            self.station.submit(message, self.config.housekeeping_cost)
        elif isinstance(message, PortStatsReply):
            self.port_stats[datapath_id] = message
            self.events.emit("port_stats", self.sim.now, message,
                             datapath_id)
            self.station.submit(message, self.config.housekeeping_cost)
        elif isinstance(message, (Hello, FeaturesReply, EchoReply)):
            # Session bookkeeping only; costs a token amount of CPU.
            self.station.submit(message, self.config.housekeeping_cost)
        # Barrier replies and unknown types need no action here.

    def _decide(self, payload: tuple) -> None:
        message, channel, datapath_id = payload
        decision = self.app.decide(message, datapath_id=datapath_id)
        self.packet_ins_handled.inc()
        self.sim.schedule(self.config.decision_latency,
                          self._send_replies, decision, channel)

    def _send_replies(self, decision: Decision,
                      channel: ControlChannel) -> None:
        if decision.flow_mod is not None:
            channel.send_to_switch(decision.flow_mod)
            self.flow_mods_sent.inc()
        channel.send_to_switch(decision.packet_out)
        self.packet_outs_sent.inc()
        self.events.emit("replies_sent", self.sim.now, decision)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def usage_percent(self) -> float:
        """CPU usage as the paper reports it (baseline + busy time)."""
        return (self.config.baseline_usage_percent
                + self.station.utilization_percent())

    def shutdown(self) -> None:
        """Cancel periodic work (end of run)."""
        if self._echo_handle is not None:
            self._echo_handle.cancel()

    def unwire(self) -> None:
        """Drop listeners, the station's callbacks and the channel list
        (end of run); counters and the latest stats replies stay."""
        self.events.clear()
        self.station.unwire()
        self._channels.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Controller({self.name!r}, "
                f"handled={self.packet_ins_handled.value})")
