"""Periodic flow-statistics collection (a controller-side service).

The paper's related work ([31] Xu et al.) studies minimizing the cost of
flow-statistics collection; this module provides the collection substrate:
a poller that periodically sends :class:`FlowStatsRequest` to every
attached switch and keeps per-datapath time series of rule/packet/byte
counts.  Written as a callback chain on the simulation kernel: each cycle
sleeps one period, then polls the switches one at a time, each poll
waiting for its reply under a cancellable timeout.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..metrics.series import TimeSeries
from ..openflow import FlowStatsReply, Match
from ..simkit import ScheduledCall, Simulator
from .controller import Controller


class StatsPoller:
    """Polls every switch for flow stats on a fixed period."""

    def __init__(self, sim: Simulator, controller: Controller,
                 period: float = 1.0, reply_timeout: float = 0.5,
                 match: Optional[Match] = None,
                 poll_ports: bool = False):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if reply_timeout <= 0:
            raise ValueError(
                f"reply_timeout must be positive, got {reply_timeout}")
        self.sim = sim
        self.controller = controller
        self.period = period
        self.reply_timeout = reply_timeout
        self.match = match if match is not None else Match()
        self.poll_ports = poll_ports
        #: Per-datapath series of (time, value) samples.
        self.rule_counts: Dict[int, TimeSeries] = {}
        self.packet_counts: Dict[int, TimeSeries] = {}
        self.byte_counts: Dict[int, TimeSeries] = {}
        #: Per-datapath series of total port tx bytes (if poll_ports).
        self.port_tx_bytes: Dict[int, TimeSeries] = {}
        #: Polls that got no reply within the timeout.
        self.timeouts = 0
        self.polls = 0
        #: Datapaths still to poll this cycle, in attachment order.
        self._queue: List[int] = []
        #: The datapath whose reply the current poll waits for, if any.
        self._awaiting: Optional[int] = None
        self._reply_timer: Optional[ScheduledCall] = None
        self._started = False
        self._stopped = False
        controller.events.on("flow_stats", self._on_reply)
        controller.events.on("port_stats", self._on_port_reply)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin polling: the first cycle starts one period from now."""
        if self._started:
            raise RuntimeError("poller already started")
        self._started = True
        self.sim.schedule(self.period, self._cycle)

    def stop(self) -> None:
        """Stop after the current cycle."""
        self._stopped = True

    # ------------------------------------------------------------------
    # The polling cycle
    # ------------------------------------------------------------------
    def _cycle(self) -> None:
        if self._stopped:
            return
        self._queue = [dpid for _chan, dpid in self.controller._channels]
        self._poll_next()

    def _poll_next(self) -> None:
        if not self._queue:
            if not self._stopped:
                self.sim.schedule(self.period, self._cycle)
            return
        dpid = self._queue.pop(0)
        self.polls += 1
        self._awaiting = dpid
        self.controller.request_flow_stats(datapath_id=dpid,
                                           match=self.match)
        if self.poll_ports:
            self.controller.request_port_stats(datapath_id=dpid)
        self._reply_timer = self.sim.schedule(self.reply_timeout,
                                              self._on_timeout)

    def _on_timeout(self) -> None:
        self.timeouts += 1
        self._finish_poll()

    def _finish_poll(self) -> None:
        """Close the current poll; the next one starts at this instant.

        The continuation goes through a same-instant ``schedule`` so it
        runs after the code that delivered the outcome (the controller's
        reply dispatch, its other listeners) has returned.
        """
        self._awaiting = None
        self.sim.schedule(0.0, self._poll_next)

    def _on_reply(self, time: float, reply: FlowStatsReply,
                  datapath_id: int) -> None:
        self.rule_counts.setdefault(
            datapath_id, TimeSeries(f"rules@{datapath_id}")).add(
            time, float(len(reply.entries)))
        self.packet_counts.setdefault(
            datapath_id, TimeSeries(f"packets@{datapath_id}")).add(
            time, float(sum(e.packet_count for e in reply.entries)))
        self.byte_counts.setdefault(
            datapath_id, TimeSeries(f"bytes@{datapath_id}")).add(
            time, float(sum(e.byte_count for e in reply.entries)))
        if datapath_id == self._awaiting:
            self._reply_timer.cancel()
            self._finish_poll()

    def _on_port_reply(self, time: float, reply, datapath_id: int) -> None:
        self.port_tx_bytes.setdefault(
            datapath_id, TimeSeries(f"port-tx@{datapath_id}")).add(
            time, float(sum(e.tx_bytes for e in reply.entries)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def latest_rule_count(self, datapath_id: int) -> Optional[float]:
        """Most recent rule count for one switch, if any."""
        series = self.rule_counts.get(datapath_id)
        return series.last() if series is not None else None
