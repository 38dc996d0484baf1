"""The three buffer mechanisms the paper compares.

* :class:`NoBuffer` — the OpenFlow default configuration: every miss-match
  packet is enclosed whole in its ``packet_in``; the controller sends the
  frame back inside ``packet_out``.
* :class:`PacketGranularityBuffer` — the spec's buffer used as intended:
  each miss-match packet gets an exclusive ``buffer_id``; the ``packet_in``
  carries at most ``miss_send_len`` bytes.  This is the paper's
  "default buffer mechanism" (§IV).
* :class:`FlowGranularityBuffer` — the paper's contribution (§V,
  Algorithms 1–2): all miss-match packets of a flow share one
  ``buffer_id``; only the first triggers a ``packet_in`` (re-sent on
  timeout); one ``packet_out`` releases and forwards them all.

A mechanism is pure *policy*: the switch agent asks it what to do on a
table miss (:meth:`BufferMechanism.on_miss`) and on arrival of a
``packet_out``/``flow_mod`` (:meth:`BufferMechanism.on_packet_out`,
:meth:`BufferMechanism.on_flow_mod_release`), and charges CPU time for the
reported :class:`~repro.core.ops.BufferOps`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..openflow import OFP_NO_BUFFER, BufferFullError, PacketBuffer
from ..openflow.messages import FlowMod, PacketOut
from ..packets import Packet
from ..simkit import ScheduledCall, Simulator
from .ops import NO_OPS, BufferOps

#: Callback the agent provides for Algorithm 1 line 13 re-requests:
#: (packet, buffer_id) -> None.
RetrySender = Callable[[Packet, int], None]


@dataclass(frozen=True)
class MissDecision:
    """What the switch agent must do with one miss-match packet."""

    #: Send a packet_in for this packet?  (Flow-granularity answers False
    #: for every packet after the first of a flow.)
    send_packet_in: bool
    #: buffer_id to advertise; OFP_NO_BUFFER when the frame is enclosed.
    buffer_id: int
    #: Frame bytes to enclose in the packet_in (0 if none sent).
    data_len: int
    #: True if the frame is now held in the switch buffer.
    stored: bool
    #: Elementary buffer operations performed (for CPU charging).
    ops: BufferOps = NO_OPS
    #: True when the buffer refused this packet (degraded to no-buffer
    #: because of exhaustion or a pool-policy squeeze).
    rejected: bool = False
    #: Partition whose budget rejected the packet (``None`` for private,
    #: unpartitioned buffers) — lets the agent label rejection counters.
    partition: Optional[str] = None


@dataclass(frozen=True)
class ReleaseResult:
    """Outcome of processing a packet_out / flow_mod buffer reference."""

    #: Packets to transmit, in order.
    packets: tuple = ()
    #: True if the referenced buffer_id was unknown (switch sends an error).
    unknown: bool = False
    ops: BufferOps = NO_OPS


class BufferMechanism(abc.ABC):
    """Policy interface for handling miss-match packets.

    Every mechanism holds its unit store as :attr:`buffer` (the
    no-buffer mechanism's holds zero units), so occupancy, counters and
    ageout read the same way off any of them.
    """

    #: Short machine-readable name used by configs, reports and figures.
    name: str = "abstract"

    #: The mechanism's unit store.
    buffer: PacketBuffer

    #: Pool ledger the store charges (normally the switch name);
    #: ``None`` for no-buffer, which heartbeats leave out.
    partition: Optional[str] = None

    #: Pool scope=port: each ingress port is its own pool partition
    #: (``<partition>:p<port>``) instead of one per-switch partition.
    per_port_partitions: bool = False

    #: Flows given up on after exhausting re-requests (Algorithm 1 line
    #: 13).  Only the flow-granularity mechanism ever abandons flows,
    #: but the attribute lives on the base so metrics code — including
    #: the hybrid engine's conservation accounting — can read it off any
    #: mechanism without ``getattr`` guards.
    flows_abandoned: int = 0

    @abc.abstractmethod
    def on_miss(self, packet: Packet, in_port: int,
                now: float) -> MissDecision:
        """Decide buffering + packet_in for one table-miss packet."""

    @abc.abstractmethod
    def on_packet_out(self, message: PacketOut, now: float) -> ReleaseResult:
        """Resolve a packet_out into the packets to transmit."""

    def on_flow_mod_release(self, message: FlowMod,
                            now: float) -> ReleaseResult:
        """A flow_mod carrying a valid buffer_id also releases the packet
        (OpenFlow spec); mechanisms without a buffer return nothing."""
        return ReleaseResult()

    def _partition_for(self, in_port: int) -> Optional[str]:
        if self.per_port_partitions:
            return f"{self.partition}:p{in_port}"
        return None   # the buffer's own default partition

    # -- occupancy (Fig. 8 / Fig. 13 raw material) ----------------------
    def occupancy(self, now: float) -> int:
        """Buffer units unavailable at ``now`` (live + recycling)."""
        return self.buffer.occupancy(now)

    @property
    def units_in_use(self) -> int:
        """Buffer units currently occupied."""
        return self.buffer.units_in_use

    @property
    def packets_stored(self) -> int:
        """Packets currently held in the buffer."""
        return self.buffer.packets_stored

    @property
    def capacity(self) -> int:
        """Total buffer units."""
        return self.buffer.capacity

    def shutdown(self) -> None:
        """Cancel timers etc. at the end of a run."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(units={self.units_in_use}"
                f"/{self.capacity})")


class NoBuffer(BufferMechanism):
    """OpenFlow with buffering disabled (``buffer_id = OFP_NO_BUFFER``)."""

    name = "no-buffer"

    def __init__(self):
        # Zero units, as its FeaturesReply advertises (n_buffers=0).
        self.buffer = PacketBuffer(0)

    def on_miss(self, packet: Packet, in_port: int,
                now: float) -> MissDecision:
        """Enclose the whole frame in the packet_in; store nothing."""
        # The whole frame rides in the packet_in; nothing is stored.
        return MissDecision(send_packet_in=True, buffer_id=OFP_NO_BUFFER,
                            data_len=packet.wire_len, stored=False)

    def on_packet_out(self, message: PacketOut, now: float) -> ReleaseResult:
        """Forward the frame the controller enclosed."""
        if message.packet is None:
            return ReleaseResult(unknown=True)
        return ReleaseResult(packets=(message.packet,))


class PacketGranularityBuffer(BufferMechanism):
    """The spec's default buffer: one unit and one buffer_id per packet.

    On buffer exhaustion the switch degrades to no-buffer behaviour for the
    overflowing packets — the knee the paper observes for buffer-16 past
    ~30 Mbps.
    """

    name = "packet-granularity"

    def __init__(self, capacity: int, miss_send_len: int = 128,
                 reclaim_delay: float = 0.0, pool=None,
                 partition: str = "buffer",
                 per_port_partitions: bool = False):
        if miss_send_len < 0:
            raise ValueError("miss_send_len must be >= 0")
        self.buffer = PacketBuffer(capacity, reclaim_delay=reclaim_delay,
                                   pool=pool, partition=partition)
        self.miss_send_len = miss_send_len
        self.partition = partition
        self.per_port_partitions = per_port_partitions and pool is not None

    def on_miss(self, packet: Packet, in_port: int,
                now: float) -> MissDecision:
        """Buffer the packet under its own id; send a truncated request."""
        try:
            buffer_id = self.buffer.store(
                packet, now, partition=self._partition_for(in_port))
        except BufferFullError as exc:
            # Degrade: full frame in the packet_in, nothing stored.
            return MissDecision(send_packet_in=True,
                               buffer_id=OFP_NO_BUFFER,
                               data_len=packet.wire_len, stored=False,
                               ops=BufferOps(map_lookups=1),
                               rejected=True, partition=exc.partition)
        data_len = packet.leading_bytes(self.miss_send_len)
        return MissDecision(send_packet_in=True, buffer_id=buffer_id,
                            data_len=data_len, stored=True,
                            ops=BufferOps(stores=1, map_inserts=1))

    def on_packet_out(self, message: PacketOut, now: float) -> ReleaseResult:
        """Release exactly the one packet the buffer_id names."""
        if not message.is_buffered:
            if message.packet is None:
                return ReleaseResult(unknown=True)
            return ReleaseResult(packets=(message.packet,))
        return self._release(message.buffer_id, now)

    def on_flow_mod_release(self, message: FlowMod,
                            now: float) -> ReleaseResult:
        """A flow_mod with a valid buffer_id also releases its packet."""
        if message.buffer_id == OFP_NO_BUFFER:
            return ReleaseResult()
        return self._release(message.buffer_id, now)

    def _release(self, buffer_id: int, now: float) -> ReleaseResult:
        packets = self.buffer.release(buffer_id, now)
        ops = BufferOps(map_lookups=1, releases=1, map_removes=1)
        if not packets:
            return ReleaseResult(unknown=True, ops=ops)
        return ReleaseResult(packets=tuple(packets), ops=ops)


@dataclass
class _PendingFlow:
    """Retry bookkeeping for one flow awaiting its control reply."""

    buffer_id: int
    first_packet: Packet
    retries: int = 0
    timer: Optional[ScheduledCall] = None
    last_packet: Packet = field(default=None)  # type: ignore[assignment]


class FlowGranularityBuffer(BufferMechanism):
    """The paper's proposed mechanism (Algorithms 1 and 2).

    Needs a :class:`~repro.simkit.Simulator` for the Algorithm-1 line-12
    timeout timer, and a retry sender (installed by the switch agent) to
    emit line-13 re-requests.
    """

    name = "flow-granularity"

    def __init__(self, sim: Simulator, capacity: int,
                 miss_send_len: int = 128, retry_timeout: float = 0.050,
                 max_retries: int = 8,
                 max_packets_per_flow: Optional[int] = None,
                 pool=None, partition: str = "buffer",
                 per_port_partitions: bool = False):
        if miss_send_len < 0:
            raise ValueError("miss_send_len must be >= 0")
        if retry_timeout <= 0:
            raise ValueError("retry_timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.sim = sim
        self.buffer = PacketBuffer(
            capacity, max_packets_per_flow=max_packets_per_flow,
            pool=pool, partition=partition)
        self.partition = partition
        self.per_port_partitions = per_port_partitions and pool is not None
        self.miss_send_len = miss_send_len
        self.retry_timeout = retry_timeout
        self.max_retries = max_retries
        self._pending: dict[int, _PendingFlow] = {}
        self._retry_sender: Optional[RetrySender] = None
        self.flows_abandoned = 0

    def set_retry_sender(self, sender: Optional[RetrySender]) -> None:
        """Install the agent callback used for timeout re-requests
        (``None`` drops it at the end of a run)."""
        self._retry_sender = sender

    # ------------------------------------------------------------------
    # Algorithm 1 — buffer each miss-match packet
    # ------------------------------------------------------------------
    def on_miss(self, packet: Packet, in_port: int,
                now: float) -> MissDecision:
        """Algorithm 1: first packet requests, the rest buffer silently."""
        flow = packet.five_tuple
        if flow is None:
            # Non-IP traffic cannot be flow-keyed; degrade to no-buffer.
            return MissDecision(send_packet_in=True,
                               buffer_id=OFP_NO_BUFFER,
                               data_len=packet.wire_len, stored=False)

        buffer_id = self.buffer.get_buffer_id(flow)   # line 5
        lookup_ops = BufferOps(map_lookups=1)

        if buffer_id == -1:                           # line 6: first packet
            try:
                buffer_id = self.buffer.store(
                    packet, now, partition=self._partition_for(in_port),
                    key=flow)
            except BufferFullError as exc:
                return MissDecision(send_packet_in=True,
                                   buffer_id=OFP_NO_BUFFER,
                                   data_len=packet.wire_len, stored=False,
                                   ops=lookup_ops,
                                   rejected=True, partition=exc.partition)
            self._arm_timer(buffer_id, packet)
            ops = lookup_ops + BufferOps(stores=1, map_inserts=1,
                                         timer_ops=1)
            data_len = packet.leading_bytes(self.miss_send_len)
            return MissDecision(send_packet_in=True, buffer_id=buffer_id,
                                data_len=data_len, stored=True, ops=ops)

        # line 10–11: subsequent packet of an already-pending flow.
        stored = self.buffer.append(buffer_id, packet)
        pending = self._pending.get(buffer_id)
        if pending is not None:
            pending.last_packet = packet
        if not stored:
            # Per-flow cap hit: degrade this packet to no-buffer.
            return MissDecision(send_packet_in=True,
                               buffer_id=OFP_NO_BUFFER,
                               data_len=packet.wire_len, stored=False,
                               ops=lookup_ops)
        return MissDecision(send_packet_in=False, buffer_id=buffer_id,
                            data_len=0, stored=True,
                            ops=lookup_ops + BufferOps(stores=1))

    # ------------------------------------------------------------------
    # Algorithm 2 — forward each buffered packet
    # ------------------------------------------------------------------
    def on_packet_out(self, message: PacketOut, now: float) -> ReleaseResult:
        """Algorithm 2: one packet_out drains the whole flow's queue."""
        if not message.is_buffered:
            if message.packet is None:
                return ReleaseResult(unknown=True)
            return ReleaseResult(packets=(message.packet,))
        self._disarm_timer(message.buffer_id)
        packets = self.buffer.release(message.buffer_id, now)
        ops = BufferOps(map_lookups=1, map_removes=1,
                        releases=len(packets))
        if not packets:
            return ReleaseResult(unknown=True, ops=ops)
        return ReleaseResult(packets=tuple(packets), ops=ops)

    def on_flow_mod_release(self, message: FlowMod,
                            now: float) -> ReleaseResult:
        """A flow_mod naming the shared buffer_id drains the flow too."""
        if message.buffer_id == OFP_NO_BUFFER:
            return ReleaseResult()
        return self.on_packet_out(
            PacketOut(actions=message.actions, buffer_id=message.buffer_id),
            now)

    # ------------------------------------------------------------------
    # Timeout re-request (Algorithm 1, lines 12–13)
    # ------------------------------------------------------------------
    def _arm_timer(self, buffer_id: int, packet: Packet) -> None:
        pending = _PendingFlow(buffer_id=buffer_id, first_packet=packet,
                               last_packet=packet)
        pending.timer = self.sim.schedule(self.retry_timeout,
                                          self._on_timeout, buffer_id)
        self._pending[buffer_id] = pending

    def _disarm_timer(self, buffer_id: int) -> None:
        pending = self._pending.pop(buffer_id, None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()

    def _on_timeout(self, buffer_id: int) -> None:
        pending = self._pending.get(buffer_id)
        if pending is None or buffer_id not in self.buffer:
            self._pending.pop(buffer_id, None)
            return
        if pending.retries >= self.max_retries:
            # Give up: drop the flow's buffered packets to free the unit.
            # These packets are never forwarded, so they must count as
            # drops, not releases (Fig. 13 release accounting).
            self._pending.pop(buffer_id, None)
            self.buffer.abandon(buffer_id, self.sim.now)
            self.flows_abandoned += 1
            return
        pending.retries += 1
        if self._retry_sender is not None:
            self._retry_sender(pending.last_packet, buffer_id)
        pending.timer = self.sim.schedule(self.retry_timeout,
                                          self._on_timeout, buffer_id)

    def shutdown(self) -> None:
        """Cancel every pending re-request timer."""
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()
