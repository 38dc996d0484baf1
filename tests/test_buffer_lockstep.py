"""The one buffer store in lockstep with the two stores it replaced.

``PacketBuffer`` holds both granularities' units: one-packet units for
the OpenFlow spec's buffer and keyed, growing units for the paper's
flow-granularity mechanism.  Before that it was two classes, kept here
as test-only references — ``ReferencePacketBuffer`` (one packet per
``buffer_id``, reclaim cooling ring) and ``ReferenceFlowBuffer`` (a
flow-keyed queue per ``buffer_id``, freed at once) — trimmed to what a
run calls.

Hypothesis drives the new store and the matching reference through the
same steps: misses (stores, and appends to a flow's open unit),
releases of live, unknown and already-released ids, abandonment,
ageouts at awkward cutoffs and clocks, and time advances, under private
capacity and shared pools (``static`` and ``dt``, switch and port
scope), with and without a reclaim delay and a per-flow cap.  After
every step the ids, released packets, counters, peaks, occupancy,
expiry reports, key maps and every pool ledger call must be equal.

Two counters changed meaning on purpose, and the flow machine maps
them: an ageout now counts its packets as ``expired`` (the flow
reference booked them as overflow drops), and a packet refused by the
per-flow cap counts only as a cap refusal (it was never stored, so it
stays outside the conservation law).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.bufferpool import (SCOPE_PORT, SharedBufferPool, dt_pool,
                              static_pool)
from repro.obs.registry import Counter, Gauge
from repro.openflow import BufferFullError, PacketBuffer
from repro.packets import udp_packet


class ReferencePacketBuffer:
    """The packet-granularity store as it was: one packet per unit."""

    def __init__(self, capacity, reclaim_delay=0.0, pool=None,
                 partition="buffer"):
        self.capacity = capacity
        self.reclaim_delay = reclaim_delay
        self.pool = pool
        self.partition = partition
        self._ids = itertools.count(1)
        self._units = {}
        self._stored_at = {}
        self._partition_of = {}
        self._cooling: Deque[float] = deque()
        self._buffered = Counter("pktbuf_buffered_total")
        self._released = Counter("pktbuf_released_total")
        self._full_rejections = Counter("pktbuf_full_rejections_total")
        self._unknown_releases = Counter("pktbuf_unknown_releases_total")
        self._expired = Counter("pktbuf_expired_total")
        self._peak = Gauge("pktbuf_peak_units")

    @property
    def total_buffered(self):
        return self._buffered.value

    @property
    def total_released(self):
        return self._released.value

    @property
    def full_rejections(self):
        return self._full_rejections.value

    @property
    def unknown_releases(self):
        return self._unknown_releases.value

    @property
    def total_expired(self):
        return self._expired.value

    @property
    def peak_units(self):
        return int(self._peak.value)

    def _prune_cooling(self, now):
        while self._cooling and self._cooling[0] <= now:
            self._cooling.popleft()

    def occupancy(self, now):
        self._prune_cooling(now)
        return len(self._units) + len(self._cooling)

    @property
    def units_in_use(self):
        return len(self._units)

    @property
    def packets_stored(self):
        return len(self._units)

    def is_exhausted(self, now):
        return self.occupancy(now) >= self.capacity

    def store(self, packet, now, partition=None):
        if self.pool is None:
            if self.is_exhausted(now):
                self._full_rejections.inc()
                raise BufferFullError(
                    f"all {self.capacity} buffer units in use",
                    capacity=self.capacity, occupancy=self.occupancy(now),
                    verdict="exhausted")
            buffer_id = next(self._ids)
            self._units[buffer_id] = packet
            self._stored_at[buffer_id] = now
            self._buffered.inc()
            self._peak.track_max(len(self._units) + len(self._cooling))
            return buffer_id
        self._prune_cooling(now)
        pid = partition if partition is not None else self.partition
        verdict = self.pool.admit(pid, now)
        if not verdict.admitted:
            self._full_rejections.inc()
            raise BufferFullError(
                f"pool rejected partition {pid!r} ({verdict.reason})",
                capacity=self.pool.total_capacity,
                occupancy=self.pool.occupancy_of(pid, now),
                partition=pid, verdict=verdict.reason)
        buffer_id = next(self._ids)
        self._units[buffer_id] = packet
        self._stored_at[buffer_id] = now
        self._partition_of[buffer_id] = pid
        self._buffered.inc()
        self._peak.track_max(len(self._units) + len(self._cooling))
        return buffer_id

    def release(self, buffer_id, now):
        packet = self._units.pop(buffer_id, None)
        stored_at = self._stored_at.pop(buffer_id, None)
        if packet is None:
            self._unknown_releases.inc()
            return None
        self._released.inc()
        if self.reclaim_delay > 0:
            self._cooling.append(now + self.reclaim_delay)
        if self.pool is not None:
            pid = self._partition_of.pop(buffer_id, self.partition)
            held = None if stored_at is None else now - stored_at
            cool = (now + self.reclaim_delay
                    if self.reclaim_delay > 0 else None)
            self.pool.release_unit(pid, now, held=held, cool_until=cool)
        return packet

    def __contains__(self, buffer_id):
        return buffer_id in self._units

    def expire_older_than(self, cutoff, now=None):
        expired = [bid for bid, t in self._stored_at.items() if t < cutoff]
        when = cutoff if now is None else now
        cool = when + self.reclaim_delay if self.reclaim_delay > 0 else None
        for bid in expired:
            self._units.pop(bid, None)
            self._stored_at.pop(bid, None)
            self._expired.inc()
            if cool is not None:
                self._cooling.append(cool)
            if self.pool is not None:
                pid = self._partition_of.pop(bid, self.partition)
                self.pool.release_unit(pid, when, cool_until=cool)
        return expired


class ReferenceFlowBuffer:
    """The flow-granularity store as it was: a queue per flow."""

    def __init__(self, capacity, max_packets_per_flow=None, pool=None,
                 partition="buffer"):
        self.capacity = capacity
        self.max_packets_per_flow = max_packets_per_flow
        self.pool = pool
        self.partition = partition
        self._ids = itertools.count(1)
        self._id_by_flow = {}
        self._flow_by_id = {}
        self._queues = {}
        self._stored_at = {}
        self._partition_of = {}
        self.total_buffered = 0
        self.total_released = 0
        self.full_rejections = 0
        self.overflow_drops = 0
        self.abandoned_drops = 0
        self.unknown_releases = 0
        self.peak_units = 0
        self._packets_stored = 0

    @property
    def units_in_use(self):
        return len(self._queues)

    @property
    def packets_stored(self):
        return self._packets_stored

    def get_buffer_id(self, flow):
        return self._id_by_flow.get(flow, -1)

    def buffer_first_packet(self, flow, packet, now, partition=None):
        if self.pool is None:
            if len(self._queues) >= self.capacity:
                self.full_rejections += 1
                raise BufferFullError(
                    f"all {self.capacity} buffer units in use",
                    capacity=self.capacity, occupancy=len(self._queues),
                    verdict="exhausted")
        else:
            pid = partition if partition is not None else self.partition
            verdict = self.pool.admit(pid, now)
            if not verdict.admitted:
                self.full_rejections += 1
                raise BufferFullError(
                    f"pool rejected partition {pid!r} ({verdict.reason})",
                    capacity=self.pool.total_capacity,
                    occupancy=self.pool.occupancy_of(pid, now),
                    partition=pid, verdict=verdict.reason)
        buffer_id = next(self._ids)
        self._id_by_flow[flow] = buffer_id
        self._flow_by_id[buffer_id] = flow
        self._queues[buffer_id] = deque([packet])
        self._stored_at[buffer_id] = now
        if self.pool is not None:
            self._partition_of[buffer_id] = pid
        self.total_buffered += 1
        self._packets_stored += 1
        self.peak_units = max(self.peak_units, len(self._queues))
        return buffer_id

    def buffer_subsequent_packet(self, buffer_id, packet):
        queue = self._queues[buffer_id]
        if (self.max_packets_per_flow is not None
                and len(queue) >= self.max_packets_per_flow):
            self.overflow_drops += 1
            return False
        queue.append(packet)
        self.total_buffered += 1
        self._packets_stored += 1
        return True

    def _take(self, buffer_id, now, observe):
        queue = self._queues.pop(buffer_id, None)
        if queue is None:
            return None
        flow = self._flow_by_id.pop(buffer_id)
        self._id_by_flow.pop(flow, None)
        stored_at = self._stored_at.pop(buffer_id, None)
        self._packets_stored -= len(queue)
        if self.pool is not None:
            pid = self._partition_of.pop(buffer_id, self.partition)
            held = now - stored_at if observe else None
            self.pool.release_unit(pid, now, held=held)
        return list(queue)

    def release_all(self, buffer_id, now):
        packets = self._take(buffer_id, now, observe=True)
        if packets is None:
            self.unknown_releases += 1
            return []
        self.total_released += len(packets)
        return packets

    def drop_all(self, buffer_id, now):
        packets = self._take(buffer_id, now, observe=False)
        if packets is None:
            return []
        self.abandoned_drops += len(packets)
        return packets

    def queue_length(self, buffer_id):
        queue = self._queues.get(buffer_id)
        return 0 if queue is None else len(queue)

    def __contains__(self, buffer_id):
        return buffer_id in self._queues

    def expire_older_than(self, cutoff, now=None):
        expired = [bid for bid, t in self._stored_at.items() if t < cutoff]
        when = cutoff if now is None else now
        for bid in expired:
            dropped = self.drop_all(bid, now=when)
            self.abandoned_drops -= len(dropped)
            self.overflow_drops += len(dropped)
        return expired


class RecordingPool(SharedBufferPool):
    """A shared pool that logs every ledger call it receives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def admit(self, partition, now):
        verdict = super().admit(partition, now)
        self.calls.append(("admit", partition, now, verdict))
        return verdict

    def release_unit(self, partition, now, held=None, cool_until=None):
        self.calls.append(("release", partition, now, held, cool_until))
        super().release_unit(partition, now, held=held,
                             cool_until=cool_until)


#: Private capacity and pool budget: small, so exhaustion is common.
_CAPACITY = 4
_POOL_BUDGET = 6
_PORTS = (1, 2, 3)
_FLOWS = 5

#: (policy, scope) — ``None`` is a private store.
_SETTINGS = st.sampled_from([
    None, (static_pool, "switch"), (static_pool, SCOPE_PORT),
    (dt_pool, "switch"), (dt_pool, SCOPE_PORT)])


def _packet(flow, seq):
    return udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                      f"10.0.0.{flow + 1}", "10.0.0.2", 1000 + flow, 2000,
                      flow_id=flow, seq_in_flow=seq)


def _pool(setting):
    make, scope = setting
    spec = make(scope=scope) if scope == SCOPE_PORT else make()
    quota = _POOL_BUDGET // (len(_PORTS) if scope == SCOPE_PORT else 1)
    return RecordingPool(spec, _POOL_BUDGET, quota)


def _same_error(mine, theirs):
    assert (mine.capacity, mine.occupancy, mine.partition, mine.verdict) \
        == (theirs.capacity, theirs.occupancy, theirs.partition,
            theirs.verdict)


class _Lockstep(RuleBasedStateMachine):
    """Shared steps; subclasses pick the granularity."""

    def __init__(self):
        super().__init__()
        self.now = 0.0
        #: (new id, reference id) of every unit ever opened, in order.
        self.pairs = []
        self.store_times = []
        self.seq = 0
        self.new = self.ref = None
        self.new_pool = self.ref_pool = None
        self.per_port = False

    @initialize(setting=_SETTINGS, reclaim=st.sampled_from([0.0, 0.05]),
                cap=st.sampled_from([None, 1, 2]))
    def build(self, setting, reclaim, cap):
        if setting is not None:
            self.new_pool, self.ref_pool = _pool(setting), _pool(setting)
            self.per_port = setting[1] == SCOPE_PORT
        self.new = PacketBuffer(_CAPACITY, reclaim_delay=reclaim,
                                pool=self.new_pool, partition="sw",
                                max_packets_per_flow=cap)
        self.ref = self._reference(reclaim, cap)

    def _partition(self, port):
        return f"sw:p{port}" if self.per_port else None

    def _opened(self, new_id, ref_id):
        # Each store numbers its own ids from 1.
        assert new_id == ref_id
        assert new_id not in {n for n, _ in self.pairs}
        assert ref_id not in {r for _, r in self.pairs}
        self.pairs.append((new_id, ref_id))
        self.store_times.append(self.now)

    def _target(self, pick):
        """An issued id pair (live or released), or an unknown one."""
        if pick >= 0 and self.pairs:
            return self.pairs[pick % len(self.pairs)]
        unknown = 10**12 - pick
        return unknown, unknown

    def _next_packet(self, flow):
        self.seq += 1
        return _packet(flow, self.seq)

    @rule(dt=st.sampled_from([0.0, 0.001, 0.02, 0.05, 0.3]))
    def tick(self, dt):
        self.now += dt

    @rule(pick=st.integers(-2, 8))
    def release(self, pick):
        new_id, ref_id = self._target(pick)
        assert self.new.release(new_id, self.now) \
            == self._ref_release(ref_id)

    @rule(cutoff=st.sampled_from(["store", "now", "future", "back"]),
          pick=st.integers(0, 8), clock=st.booleans())
    def ageout(self, cutoff, pick, clock):
        if cutoff == "store" and self.store_times:
            at = self.store_times[pick % len(self.store_times)]
        elif cutoff == "future":
            at = self.now + 1.0
        elif cutoff == "back":
            at = self.now - 0.03
        else:
            at = self.now
        now = self.now if clock else None
        self._before_ageout(at)
        expired = self.new.expire_older_than(at, now=now)
        to_ref = dict(self.pairs)
        assert [to_ref[bid] for bid in expired] \
            == self.ref.expire_older_than(at, now=now)

    def _before_ageout(self, cutoff):
        pass

    # -- after every step ------------------------------------------------
    @invariant()
    def same_state(self):
        new, ref = self.new, self.ref
        assert new.units_in_use == ref.units_in_use
        assert new.packets_stored == ref.packets_stored
        assert new.occupancy(self.now) == self._ref_occupancy()
        for new_id, ref_id in self.pairs:
            assert (new_id in new) == (ref_id in ref)
        assert new.buffered.value == ref.total_buffered
        assert new.released.value == ref.total_released
        assert new.full_rejections.value == ref.full_rejections
        assert new.unknown_releases.value == ref.unknown_releases
        assert new.peak_units.value == ref.peak_units
        self._same_counters()
        if self.new_pool is not None:
            assert self.new_pool.calls == self.ref_pool.calls
            for partition in self.ref_pool.partitions:
                assert self.new_pool.occupancy_of(partition, self.now) \
                    == self.ref_pool.occupancy_of(partition, self.now)
            assert self.new_pool.total_occupancy(self.now) \
                == self.ref_pool.total_occupancy(self.now)
        # The law the conservation monitor checks live.
        assert new.buffered.value == (new.released.value
                                      + new.expired.value
                                      + new.abandoned.value
                                      + new.packets_stored)


class PacketUnitMachine(_Lockstep):
    """One-packet units against the spec buffer's old store."""

    def _reference(self, reclaim, cap):
        return ReferencePacketBuffer(_CAPACITY, reclaim_delay=reclaim,
                                     pool=self.ref_pool, partition="sw")

    def _ref_release(self, ref_id):
        packet = self.ref.release(ref_id, self.now)
        return [] if packet is None else [packet]

    def _ref_occupancy(self):
        return self.ref.occupancy(self.now)

    def _same_counters(self):
        assert self.new.expired.value == self.ref.total_expired
        assert self.new.abandoned.value == 0
        assert self.new.cap_refusals.value == 0

    @rule(port=st.sampled_from(_PORTS), flow=st.integers(0, _FLOWS - 1))
    def miss(self, port, flow):
        packet = self._next_packet(flow)
        partition = self._partition(port)
        try:
            new_id = self.new.store(packet, self.now, partition=partition)
        except BufferFullError as mine:
            try:
                self.ref.store(packet, self.now, partition=partition)
            except BufferFullError as theirs:
                _same_error(mine, theirs)
                return
            raise AssertionError("only the new store refused")
        self._opened(new_id, self.ref.store(packet, self.now,
                                            partition=partition))


class FlowUnitMachine(_Lockstep):
    """Keyed units against the flow-granularity mechanism's old store."""

    def __init__(self):
        super().__init__()
        #: Packets the reference booked as overflow on ageout.
        self.aged_packets = 0

    def _reference(self, reclaim, cap):
        # The old flow store had no cooling ring at all.
        return ReferenceFlowBuffer(_CAPACITY, max_packets_per_flow=cap,
                                   pool=self.ref_pool, partition="sw")

    def _ref_release(self, ref_id):
        return self.ref.release_all(ref_id, now=self.now)

    def _ref_occupancy(self):
        return self.ref.units_in_use

    def _before_ageout(self, cutoff):
        self.aged_packets += sum(
            self.ref.queue_length(bid)
            for bid, t in self.ref._stored_at.items() if t < cutoff)

    def _same_counters(self):
        new, ref = self.new, self.ref
        assert new.expired.value == self.aged_packets
        assert new.cap_refusals.value == ref.overflow_drops \
            - self.aged_packets
        assert new.abandoned.value == ref.abandoned_drops
        to_new = {r: n for n, r in self.pairs}
        to_new[-1] = -1
        for flow in range(_FLOWS):
            key = _packet(flow, 0).five_tuple
            assert new.get_buffer_id(key) \
                == to_new[ref.get_buffer_id(key)]

    @rule(port=st.sampled_from(_PORTS), flow=st.integers(0, _FLOWS - 1))
    def miss(self, port, flow):
        """Algorithm 1: open the flow's unit, or append to it."""
        packet = self._next_packet(flow)
        key = packet.five_tuple
        ref_id = self.ref.get_buffer_id(key)
        if ref_id != -1:
            assert self.new.append(self.new.get_buffer_id(key), packet) \
                == self.ref.buffer_subsequent_packet(ref_id, packet)
            return
        partition = self._partition(port)
        try:
            new_id = self.new.store(packet, self.now, partition=partition,
                                    key=key)
        except BufferFullError as mine:
            try:
                self.ref.buffer_first_packet(key, packet, self.now,
                                             partition=partition)
            except BufferFullError as theirs:
                _same_error(mine, theirs)
                return
            raise AssertionError("only the new store refused")
        self._opened(new_id, self.ref.buffer_first_packet(
            key, packet, self.now, partition=partition))

    @rule(pick=st.integers(-1, 8))
    def abandon(self, pick):
        new_id, ref_id = self._target(pick)
        assert self.new.abandon(new_id, self.now) \
            == self.ref.drop_all(ref_id, now=self.now)


_MACHINE_SETTINGS = settings(max_examples=80, stateful_step_count=40,
                             deadline=None)
PacketUnitMachine.TestCase.settings = _MACHINE_SETTINGS
FlowUnitMachine.TestCase.settings = _MACHINE_SETTINGS
TestPacketUnitsAgainstOldStore = PacketUnitMachine.TestCase
TestFlowUnitsAgainstOldStore = FlowUnitMachine.TestCase
