"""Tests for the buffer store's flow units (Algorithms 1-2's store)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.core import FlowGranularityBuffer
from repro.obs import ConservationMonitor
from repro.openflow import BufferFullError, PacketBuffer
from repro.packets import udp_packet
from repro.simkit import Simulator


def _packet(flow=0, seq=0):
    return udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                      f"10.0.0.{flow + 1}", "10.0.0.2", 1000 + flow, 2000,
                      flow_id=flow, seq_in_flow=seq)


def _flow_key(flow=0):
    return _packet(flow).five_tuple


def test_get_buffer_id_returns_minus_one_for_unknown_flow():
    buffer = PacketBuffer(capacity=4)
    assert buffer.get_buffer_id(_flow_key()) == -1


def test_first_packet_allocates_unit_and_shared_id():
    buffer = PacketBuffer(capacity=4)
    key = _flow_key()
    buffer_id = buffer.store(_packet(0, 0), now=0.0, key=key)
    assert buffer.get_buffer_id(key) == buffer_id
    assert buffer.units_in_use == 1
    assert buffer.packets_stored == 1


def test_subsequent_packets_share_the_unit():
    buffer = PacketBuffer(capacity=4)
    key = _flow_key()
    buffer_id = buffer.store(_packet(0, 0), now=0.0, key=key)
    for seq in range(1, 5):
        assert buffer.append(buffer_id, _packet(0, seq))
    assert buffer.units_in_use == 1          # still ONE unit
    assert buffer.packets_stored == 5
    assert buffer.buffered.value == 5


def test_release_all_returns_packets_in_arrival_order():
    buffer = PacketBuffer(capacity=4)
    key = _flow_key()
    packets = [_packet(0, seq) for seq in range(4)]
    buffer_id = buffer.store(packets[0], now=0.0, key=key)
    for packet in packets[1:]:
        buffer.append(buffer_id, packet)
    released = buffer.release(buffer_id, now=1.0)
    assert released == packets
    assert buffer.released.value == 4
    assert buffer.units_in_use == 0
    assert buffer.packets_stored == 0
    assert buffer.get_buffer_id(key) == -1


def test_release_all_unknown_id_is_empty():
    buffer = PacketBuffer(capacity=4)
    assert buffer.release(424242, now=0.0) == []
    assert buffer.unknown_releases.value == 1


def test_duplicate_first_packet_rejected():
    buffer = PacketBuffer(capacity=4)
    key = _flow_key()
    buffer.store(_packet(0, 0), now=0.0, key=key)
    with pytest.raises(ValueError):
        buffer.store(_packet(0, 1), now=0.0, key=key)


def test_capacity_counts_flows_not_packets():
    buffer = PacketBuffer(capacity=2)
    id0 = buffer.store(_packet(0), now=0.0, key=_flow_key(0))
    buffer.store(_packet(1), now=0.0, key=_flow_key(1))
    for seq in range(1, 10):
        buffer.append(id0, _packet(0, seq))
    assert buffer.packets_stored == 11
    assert buffer.occupancy(0.0) == buffer.capacity
    with pytest.raises(BufferFullError):
        buffer.store(_packet(2), now=0.0, key=_flow_key(2))
    assert buffer.full_rejections.value == 1


def test_per_flow_packet_cap():
    buffer = PacketBuffer(capacity=4, max_packets_per_flow=2)
    buffer_id = buffer.store(_packet(0, 0), now=0.0, key=_flow_key())
    assert buffer.append(buffer_id, _packet(0, 1))
    assert not buffer.append(buffer_id, _packet(0, 2))
    assert buffer.cap_refusals.value == 1
    # The refused packet was never stored.
    assert buffer.buffered.value == 2
    assert buffer.packets_stored == 2


def test_cap_refusals_keep_the_conservation_law():
    """Bugfix regression: a packet the per-flow cap refuses was never
    stored, so the live conservation monitor must not count it on the
    drained side (it reported "2 != 1 + 2" here)."""
    sim = Simulator()
    mechanism = FlowGranularityBuffer(sim, capacity=4,
                                      max_packets_per_flow=2)

    class Testbed:
        switches = (SimpleNamespace(mechanism=mechanism),)
        pool = None

    for seq in range(3):
        mechanism.on_miss(_packet(0, seq), in_port=1, now=0.0)
    assert ConservationMonitor().check(Testbed, 0.0) == []
    assert mechanism.buffer.cap_refusals.value == 1
    mechanism.shutdown()


def test_subsequent_on_unknown_unit_fails():
    buffer = PacketBuffer(capacity=4)
    with pytest.raises(KeyError):
        buffer.append(999, _packet())
    # An append to a vanished unit is not a release, nor a store.
    assert buffer.unknown_releases.value == 0
    assert buffer.buffered.value == 0


def test_drop_all_counts_drops_not_releases():
    """Retry exhaustion frees the unit but its packets were dropped,
    never forwarded — they must not inflate the released count."""
    buffer = PacketBuffer(capacity=4)
    key = _flow_key()
    buffer_id = buffer.store(_packet(), now=0.0, key=key)
    buffer.append(buffer_id, _packet(0, 1))
    dropped = buffer.abandon(buffer_id, now=1.0)
    assert len(dropped) == 2
    assert buffer.abandoned.value == 2
    assert buffer.released.value == 0
    assert buffer.units_in_use == 0
    assert buffer.get_buffer_id(key) == -1
    assert buffer.abandon(buffer_id, now=2.0) == []   # idempotent, uncounted
    assert buffer.abandoned.value == 2
    assert buffer.unknown_releases.value == 0


def test_expire_older_than_frees_unit():
    buffer = PacketBuffer(capacity=4)
    key = _flow_key()
    buffer_id = buffer.store(_packet(), now=0.0, key=key)
    buffer.append(buffer_id, _packet(0, 1))
    expired = buffer.expire_older_than(cutoff=1.0)
    assert expired == [buffer_id]
    assert buffer.units_in_use == 0
    assert buffer.get_buffer_id(key) == -1   # the flow is unmapped too
    assert buffer.expired.value == 2         # expiries, not overflow
    assert buffer.cap_refusals.value == 0


def test_flow_units_free_without_cooling():
    """Flow units live in a map, not the pktbuf ring: a reclaim delay
    (which packet units cool through) does not hold them."""
    buffer = PacketBuffer(capacity=1, reclaim_delay=5.0)
    first = buffer.store(_packet(0), now=0.0, key=_flow_key(0))
    buffer.release(first, now=1.0)
    assert buffer.occupancy(1.0) == 0
    buffer.store(_packet(1), now=1.0, key=_flow_key(1))


def test_peaks_track_units_and_packets():
    buffer = PacketBuffer(capacity=8)
    id0 = buffer.store(_packet(0), now=0.0, key=_flow_key(0))
    buffer.store(_packet(1), now=0.0, key=_flow_key(1))
    buffer.append(id0, _packet(0, 1))
    assert buffer.packets_stored == 3
    buffer.release(id0, now=1.0)
    assert buffer.peak_units.value == 2
    assert buffer.units_in_use == 1
    assert buffer.packets_stored == 1


def test_validation():
    with pytest.raises(ValueError):
        PacketBuffer(capacity=-1)
    with pytest.raises(ValueError):
        PacketBuffer(capacity=1, max_packets_per_flow=0)


@given(st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=50))
def test_units_always_equal_distinct_pending_flows(events):
    """Property: unit count == number of flows with buffered packets."""
    buffer = PacketBuffer(capacity=10)
    pending = {}
    for flow, release in events:
        key = _flow_key(flow)
        if release and flow in pending:
            buffer.release(pending.pop(flow), now=0.0)
        elif flow not in pending:
            pending[flow] = buffer.store(_packet(flow), now=0.0, key=key)
        else:
            buffer.append(pending[flow], _packet(flow, 1))
        assert buffer.units_in_use == len(pending)
