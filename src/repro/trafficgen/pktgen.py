"""A pktgen-like driver: plays a :class:`~repro.trafficgen.workloads.Workload`
through a host and tracks what was sent.

The driver exists (rather than calling ``workload.schedule_on`` directly)
so experiments can observe send progress, stop generation early, and
replay the same workload across repetitions with fresh packet objects.
"""

from __future__ import annotations

from ..netsim import Host
from ..simkit import Simulator
from .workloads import AggregateWorkload, Workload


class PacketGenerator:
    """Replays a workload through a host with per-run fresh packets."""

    def __init__(self, sim: Simulator, host: Host, workload: Workload,
                 name: str = "pktgen"):
        self.sim = sim
        self.host = host
        self.workload = workload
        self.name = name
        self.packets_sent = 0
        self._stopped = False
        self._handles: list = []

    def start(self, at: float = 0.0) -> None:
        """Schedule the whole train, starting ``at`` seconds from now.

        Each run sends a :meth:`~repro.packets.Packet.replay_copy` of
        every template packet: a shallow copy that shares the immutable
        headers, so measurement stamps from one repetition never leak
        into the next.  A workload that still keeps lazy per-flow tails
        (:class:`AggregateWorkload`) is refused: only the hybrid
        engine's driver sends those, so replaying its ``entries`` alone
        would send each flow's first packet and silently drop the rest.
        """
        if (isinstance(self.workload, AggregateWorkload)
                and self.workload.tails):
            raise ValueError(
                f"workload {self.workload.name!r} keeps lazy per-flow "
                f"tails, which the packet engine cannot send: play "
                f"workload.materialize() instead, or run it on the hybrid "
                f"engine")
        base = self.sim.now + at
        for offset, packet in self.workload.entries:
            self._handles.append(self.sim.schedule_at(
                base + offset, self._send, packet.replay_copy()))

    def _send(self, packet) -> None:
        if self._stopped:
            return
        self.packets_sent += 1
        self.host.send(packet)

    def stop(self) -> None:
        """Cancel all not-yet-sent packets."""
        self._stopped = True
        for handle in self._handles:
            handle.cancel()

    @property
    def finished(self) -> bool:
        """True once every scheduled packet has been sent."""
        return self.packets_sent >= self.workload.n_packets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PacketGenerator({self.name!r}, "
                f"sent={self.packets_sent}/{self.workload.n_packets})")
