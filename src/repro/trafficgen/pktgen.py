"""A pktgen-like driver: plays a :class:`~repro.trafficgen.workloads.Workload`
through a host and tracks what was sent.

Like pktgen, the driver emits one frame after another: it keeps exactly
one send queued, and each send queues the next before it goes out.
Every send carries the sequence number it would have drawn had the
whole train been queued at start (:meth:`~repro.simkit.Simulator.reserve`),
so streaming changes no event's time or place in the event order.  The
driver exists (rather than each caller scheduling sends itself) so
experiments can observe send progress, stop generation early, and
replay the same workload across repetitions with fresh packet objects.
"""

from __future__ import annotations

from ..netsim import Host
from ..simkit import Simulator
from .workloads import AggregateWorkload, Workload


def check_playable(workload: Workload) -> None:
    """Refuse a workload whose send offsets ever decrease.

    A streamed source queues each send when the previous one goes out,
    so it can only play offsets in order; every generator in
    :mod:`repro.trafficgen.workloads` sorts its entries.
    """
    entries = workload.entries
    for index in range(1, len(entries)):
        if entries[index][0] < entries[index - 1][0]:
            raise ValueError(
                f"workload {workload.name!r}: entry {index} is sent before "
                f"entry {index - 1}; sort the entries by offset")


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
        #: The one queued send (``None`` once the train is spent).
        self._pending = None
        self._upcoming = iter(())
        self._base = 0.0
        self._slots = None

    def start(self, at: float = 0.0) -> None:
        """Play the train, starting ``at`` seconds from now.

        Each send is a :meth:`~repro.packets.Packet.replay_copy` of its
        template packet, made when it is sent: a shallow copy that
        shares the immutable headers, so measurement stamps from one
        repetition never leak into the next.  A workload that still
        keeps lazy per-flow tails (:class:`AggregateWorkload`) is
        refused: only the hybrid engine's driver sends those, so
        replaying its ``entries`` alone would send each flow's first
        packet and silently drop the rest.  So is a workload whose
        offsets ever decrease (:func:`check_playable`), and a second
        start.
        """
        self._play(self.sim.now + at)

    def _play(self, base: float) -> None:
        """Start the train at absolute time ``base``."""
        if self._slots is not None:
            raise RuntimeError(f"{self.name} already started")
        workload = self.workload
        if isinstance(workload, AggregateWorkload) and workload.tails:
            raise ValueError(
                f"workload {workload.name!r} keeps lazy per-flow "
                f"tails, which the packet engine cannot send: play "
                f"workload.materialize() instead, or run it on the hybrid "
                f"engine")
        check_playable(workload)
        self._base = base
        self._slots = self.sim.reserve(len(workload.entries))
        self._upcoming = iter(workload.entries)
        self._queue_next()

    def _queue_next(self) -> None:
        entry = next(self._upcoming, None)
        self._pending = None if entry is None else self._slots.schedule_at(
            self._base + entry[0], self._send_next, entry[1])

    def _send_next(self, template) -> None:
        self._queue_next()
        self._send(template.replay_copy())

    def _send(self, packet) -> None:
        if self._stopped:
            return
        self.packets_sent += 1
        self.host.send(packet)

    def stop(self) -> None:
        """Cancel all not-yet-sent packets."""
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    @property
    def finished(self) -> bool:
        """True once every scheduled packet has been sent."""
        return self.packets_sent >= self.workload.n_packets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PacketGenerator({self.name!r}, "
                f"sent={self.packets_sent}/{self.workload.n_packets})")
