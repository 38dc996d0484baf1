"""The switch buffer: units of miss-match packets keyed by ``buffer_id``.

This is the "intrinsic buffer in a SDN switch" the paper studies, at
both granularities it compares.  A *unit* is the list of packets held
under one ``buffer_id``:

* packet granularity (the OpenFlow spec's buffer, §IV) stores one
  packet per unit, so every miss-match packet gets an exclusive id;
* flow granularity (the paper's mechanism, §V.A, Algorithms 1–2) opens
  a *keyed* unit for a flow's first miss-match packet and appends the
  flow's later packets to it.  The key (the flow's five-tuple) is
  Algorithm 1's ``buffer_id ↔ flow`` map; release, abandonment and
  ageout all unmap it.

A ``packet_out`` (or ``flow_mod``) carrying the id releases the unit and
emits its packets in arrival order.  When no unit is free the switch
falls back to no-buffer behaviour for new misses — the paper's "buffer
exhaustion" knee (Fig. 2/8 around 30–35 Mbps for buffer-16).

Occupancy counts units and feeds the Fig. 8 / Fig. 13 buffer-utilization
curves.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Hashable, Optional

from ..obs.registry import Counter, Gauge
from ..packets import Packet


class BufferFullError(Exception):
    """No free buffer unit is available.

    Carries structured context so callers (and metrics) can tell *which*
    partition rejected and *why* — a private buffer at capacity looks
    very different from a shared-pool policy squeeze:

    ``capacity``
        The budget the decision was made against (buffer capacity for
        private buffers, pool budget for pooled ones).
    ``occupancy``
        Units the rejected partition held at decision time.
    ``partition``
        The partition id (``None`` for private, unpartitioned buffers).
    ``verdict``
        The policy's rejection reason token (``"quota"``,
        ``"pool-full"``, ``"threshold"``; ``"exhausted"`` for private
        buffers).
    """

    def __init__(self, message: str, *, capacity: Optional[int] = None,
                 occupancy: Optional[int] = None,
                 partition: Optional[str] = None,
                 verdict: Optional[str] = None):
        super().__init__(message)
        self.capacity = capacity
        self.occupancy = occupancy
        self.partition = partition
        self.verdict = verdict


class PacketBuffer:
    """Fixed-capacity store of packet units keyed by ``buffer_id``.

    ``reclaim_delay`` models how OVS's pktbuf recycles ring slots: an
    unkeyed unit vacated by a ``packet_out`` or an ageout only becomes
    allocatable again after the delay.  Occupancy (and exhaustion)
    therefore reflects allocation churn, not just packets literally in
    flight — which is how a 16-unit buffer exhausts near a 30–35 Mbps
    sending rate even though the control loop only takes a millisecond
    (paper Figs. 2 and 8).  Keyed (flow) units live in a map, not a
    ring, and free at once: the paper's "buffer units can be quickly
    released" (§V.B.5).

    ``max_packets_per_flow`` caps a keyed unit's length; :meth:`append`
    refuses packets past it, and those were never stored.

    ``pool`` routes unit accounting through a shared
    :class:`~repro.bufferpool.SharedBufferPool`: admission is decided by
    the pool's policy instead of this buffer's private capacity, and
    every unit opened or vacated pairs with exactly one pool ledger
    call.  Units land in the partition named per ``store`` call
    (falling back to this buffer's default ``partition``), so one
    buffer can span several per-port partitions.

    Counters are registry metrics, created unlabeled (the buffer is
    built below the testbed layer; a Switch adopts them via
    :meth:`metrics`).  Packet counts obey ``buffered == released +
    expired + abandoned + packets_stored``.
    """

    def __init__(self, capacity: int, reclaim_delay: float = 0.0,
                 pool=None, partition: str = "buffer",
                 max_packets_per_flow: Optional[int] = None):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if reclaim_delay < 0:
            raise ValueError(
                f"reclaim_delay must be >= 0, got {reclaim_delay}")
        if max_packets_per_flow is not None and max_packets_per_flow < 1:
            raise ValueError("max_packets_per_flow must be >= 1")
        self.capacity = capacity
        self.reclaim_delay = reclaim_delay
        self.pool = pool
        self.partition = partition
        self.max_packets_per_flow = max_packets_per_flow
        #: This store's buffer_id source, numbered from 1: ids never
        #: repeat within one switch's store, mirroring how real switches
        #: avoid reusing ids of released units, and a run's ids do not
        #: depend on what ran before it in the process.
        self._ids = itertools.count(1)
        #: buffer_id -> (packets, stored_at, key, partition): the key is
        #: ``None`` for unkeyed units, the partition (the ledger the unit
        #: counts against) ``None`` for private buffers.
        self._units: dict[int, tuple] = {}
        #: Algorithm 1's ``buffer_id ↔ flow`` map, key side.
        self._unit_of: dict[Hashable, int] = {}
        #: Expiry times of vacated-but-not-yet-reclaimed units (sorted,
        #: because units vacate in nondecreasing simulated time).
        self._cooling: deque[float] = deque()
        #: Packets stored (first packets and appends alike).
        self.buffered = Counter("pktbuf_buffered_total")
        #: Packets handed back by a ``packet_out``/``flow_mod``.
        self.released = Counter("pktbuf_released_total")
        #: Units refused for want of capacity (or by the pool policy).
        self.full_rejections = Counter("pktbuf_full_rejections_total")
        #: Releases naming an id that holds no unit.
        self.unknown_releases = Counter("pktbuf_unknown_releases_total")
        #: Packets dropped by ageout.
        self.expired = Counter("pktbuf_expired_total")
        #: Packets dropped when a flow is given up on.
        self.abandoned = Counter("pktbuf_abandoned_total")
        #: Appends refused by ``max_packets_per_flow`` (never stored).
        self.cap_refusals = Counter("pktbuf_cap_refusals_total")
        #: Most units unavailable at once (live + cooling).
        self.peak_units = Gauge("pktbuf_peak_units")

    def metrics(self) -> tuple:
        """Metric objects for adoption into a run's registry."""
        return (self.buffered, self.released, self.full_rejections,
                self.unknown_releases, self.expired, self.peak_units,
                self.abandoned, self.cap_refusals)

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def _prune_cooling(self, now: float) -> None:
        while self._cooling and self._cooling[0] <= now:
            self._cooling.popleft()

    def occupancy(self, now: float) -> int:
        """Units unavailable right now (live + cooling)."""
        self._prune_cooling(now)
        return len(self._units) + len(self._cooling)

    @property
    def units_in_use(self) -> int:
        """Units holding live packets (excludes cooling units)."""
        return len(self._units)

    @property
    def packets_stored(self) -> int:
        """Packets currently held across all units."""
        return sum(len(unit[0]) for unit in self._units.values())

    def __contains__(self, buffer_id: int) -> bool:
        return buffer_id in self._units

    # ------------------------------------------------------------------
    # Store
    # ------------------------------------------------------------------
    def get_buffer_id(self, key: Hashable) -> int:
        """Algorithm 1's ``getBufferIdFromMap``: the key's unit, or -1."""
        return self._unit_of.get(key, -1)

    def store(self, packet: Packet, now: float,
              partition: Optional[str] = None,
              key: Optional[Hashable] = None) -> int:
        """Open a unit holding ``packet``; returns its fresh ``buffer_id``.

        Raises :class:`BufferFullError` when no unit is free — the caller
        then falls back to enclosing the full frame in the
        ``packet_in``.  With a pool attached, admission is the pool
        policy's call (the private capacity check does not apply) and
        the unit counts against ``partition`` (default: this buffer's
        own).  ``key`` maps the unit for :meth:`get_buffer_id` until it
        is vacated.
        """
        if key is not None and key in self._unit_of:
            raise ValueError(f"key {key} already has a buffer unit")
        pid = None
        if self.pool is None:
            occupancy = self.occupancy(now)
            if occupancy >= self.capacity:
                self.full_rejections.inc()
                raise BufferFullError(
                    f"all {self.capacity} buffer units in use",
                    capacity=self.capacity, occupancy=occupancy,
                    verdict="exhausted")
        else:
            self._prune_cooling(now)   # keep the peak gauge honest
            pid = partition if partition is not None else self.partition
            verdict = self.pool.admit(pid, now)
            if not verdict.admitted:
                self.full_rejections.inc()
                raise BufferFullError(
                    f"pool rejected partition {pid!r} ({verdict.reason})",
                    capacity=self.pool.total_capacity,
                    occupancy=self.pool.occupancy_of(pid, now),
                    partition=pid, verdict=verdict.reason)
        buffer_id = next(self._ids)
        self._units[buffer_id] = ([packet], now, key, pid)
        if key is not None:
            self._unit_of[key] = buffer_id
        self.buffered.inc()
        self.peak_units.track_max(len(self._units) + len(self._cooling))
        return buffer_id

    def append(self, buffer_id: int, packet: Packet) -> bool:
        """Algorithm 1's ``bufferSubsequentPacket``: queue in a live unit.

        Returns ``False`` — nothing stored — when the unit already holds
        ``max_packets_per_flow`` packets; the caller decides how to
        degrade.
        """
        packets = self._units[buffer_id][0]
        if (self.max_packets_per_flow is not None
                and len(packets) >= self.max_packets_per_flow):
            self.cap_refusals.inc()
            return False
        packets.append(packet)
        self.buffered.inc()
        return True

    # ------------------------------------------------------------------
    # Vacate: release, abandonment, ageout
    # ------------------------------------------------------------------
    def _vacate(self, buffer_id: int, now: float,
                observe: bool) -> Optional[list[Packet]]:
        """Take a unit out; ``None`` if ``buffer_id`` holds none.

        Unmaps its key, starts an unkeyed unit's reclaim cooling and
        returns its pool budget — with the store-to-``now`` hold time
        only when ``observe`` (a completed round trip).
        """
        unit = self._units.pop(buffer_id, None)
        if unit is None:
            return None
        packets, stored_at, key, pid = unit
        cool = None
        if key is not None:
            del self._unit_of[key]
        elif self.reclaim_delay > 0:
            cool = now + self.reclaim_delay
            self._cooling.append(cool)
        if pid is not None:
            self.pool.release_unit(
                pid, now, held=now - stored_at if observe else None,
                cool_until=cool)
        return packets

    def release(self, buffer_id: int, now: float) -> list[Packet]:
        """Free the unit and return its packets in arrival order.

        This is Algorithm 2's ``getPacketFromBuffer`` loop plus
        ``releaseBufferUnit``.  Unknown ids (empty result) happen
        legitimately: a retransmitted ``packet_out`` after the unit
        already aged out, or a controller bug.  The switch answers
        those with an error message rather than crashing.
        """
        packets = self._vacate(buffer_id, now, True)
        if packets is None:
            self.unknown_releases.inc()
            return []
        self.released.inc(len(packets))
        return packets

    def abandon(self, buffer_id: int, now: float) -> list[Packet]:
        """Free the unit, counting its packets as abandoned, not released.

        The retry-exhaustion path (Algorithm 1 gives up on the flow):
        the packets were dropped, never forwarded, and the pool sees no
        hold time.  Unknown ids return an empty list, uncounted.
        """
        packets = self._vacate(buffer_id, now, False)
        if packets is None:
            return []
        self.abandoned.inc(len(packets))
        return packets

    def expire_older_than(self, cutoff: float,
                          now: Optional[float] = None) -> list[int]:
        """Free units opened before ``cutoff``; returns the expired ids.

        Real switches age out buffered packets whose ``packet_out``
        never arrives; this keeps a crashed controller from pinning the
        buffer.  Expired unkeyed units recycle through the same
        ``reclaim_delay`` cooling ring as released ones (a slot is a
        slot, however it was vacated).  ``now`` anchors the cooling
        clock; it defaults to ``cutoff`` for callers without one, which
        only shortens the cooling of already-overdue units.
        """
        expired = [bid for bid, unit in self._units.items()
                   if unit[1] < cutoff]
        when = cutoff if now is None else now
        for bid in expired:
            self.expired.inc(len(self._vacate(bid, when, False)))
        return expired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PacketBuffer(units={len(self._units)}/{self.capacity}, "
                f"peak={self.peak_units.value})")
