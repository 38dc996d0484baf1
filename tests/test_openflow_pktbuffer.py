"""Tests for the buffer store's one-packet units incl. unit recycling."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.openflow import BufferFullError, PacketBuffer
from repro.packets import udp_packet


def _packet(i=0):
    return udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                      f"10.0.0.{i % 250 + 1}", "10.0.0.2", 1000 + i, 2000)


def test_store_assigns_unique_buffer_ids():
    buffer = PacketBuffer(capacity=10)
    ids = {buffer.store(_packet(i), now=0.0) for i in range(10)}
    assert len(ids) == 10
    assert buffer.units_in_use == 10


def test_release_returns_stored_packet():
    buffer = PacketBuffer(capacity=4)
    packet = _packet()
    buffer_id = buffer.store(packet, now=0.0)
    assert buffer.release(buffer_id, now=1.0) == [packet]
    assert buffer.units_in_use == 0
    assert buffer.released.value == 1


def test_release_unknown_id_returns_none():
    buffer = PacketBuffer(capacity=4)
    assert buffer.release(999999, now=0.0) == []      # no packets
    assert buffer.unknown_releases.value == 1


def test_double_release_counts_as_unknown():
    buffer = PacketBuffer(capacity=4)
    buffer_id = buffer.store(_packet(), now=0.0)
    buffer.release(buffer_id, now=1.0)
    assert buffer.release(buffer_id, now=2.0) == []
    assert buffer.unknown_releases.value == 1
    assert buffer.released.value == 1


def test_store_when_full_raises():
    buffer = PacketBuffer(capacity=2)
    buffer.store(_packet(1), now=0.0)
    buffer.store(_packet(2), now=0.0)
    with pytest.raises(BufferFullError):
        buffer.store(_packet(3), now=0.0)
    assert buffer.full_rejections.value == 1


def test_reclaim_delay_keeps_unit_unavailable():
    buffer = PacketBuffer(capacity=1, reclaim_delay=1.0)
    buffer_id = buffer.store(_packet(1), now=0.0)
    buffer.release(buffer_id, now=0.5)
    # Unit is cooling until t = 1.5.
    assert buffer.occupancy(1.0) == 1
    with pytest.raises(BufferFullError):
        buffer.store(_packet(2), now=1.0)
    assert buffer.occupancy(1.6) == 0
    buffer.store(_packet(3), now=1.6)


def test_no_reclaim_delay_frees_immediately():
    buffer = PacketBuffer(capacity=1, reclaim_delay=0.0)
    buffer_id = buffer.store(_packet(1), now=0.0)
    buffer.release(buffer_id, now=0.5)
    buffer.store(_packet(2), now=0.5)


def test_peak_units_includes_cooling():
    buffer = PacketBuffer(capacity=8, reclaim_delay=10.0)
    ids = [buffer.store(_packet(i), now=float(i)) for i in range(3)]
    for i, buffer_id in enumerate(ids):
        buffer.release(buffer_id, now=3.0 + i)
    buffer.store(_packet(9), now=6.5)
    # 3 cooling + 1 live at t=6.5.
    assert buffer.peak_units.value == 4


def test_expire_older_than():
    buffer = PacketBuffer(capacity=8)
    old = buffer.store(_packet(1), now=0.0)
    new = buffer.store(_packet(2), now=5.0)
    expired = buffer.expire_older_than(cutoff=3.0)
    assert expired == [old]
    assert new in buffer


def test_expiry_has_own_counter_and_cooling():
    """Aged-out units are expiries (not releases) and recycle through
    the same reclaim cooling ring as packet_out-released units."""
    buffer = PacketBuffer(capacity=1, reclaim_delay=1.0)
    buffer.store(_packet(1), now=0.0)
    buffer.expire_older_than(cutoff=4.0, now=5.0)
    assert buffer.expired.value == 1
    assert buffer.released.value == 0
    assert buffer.unknown_releases.value == 0
    # Cooling until t = 6.0: the slot is not allocatable yet.
    assert buffer.occupancy(5.5) == 1
    with pytest.raises(BufferFullError):
        buffer.store(_packet(2), now=5.5)
    assert buffer.occupancy(6.1) == 0
    buffer.store(_packet(3), now=6.1)


def test_validation():
    with pytest.raises(ValueError):
        PacketBuffer(capacity=-1)
    with pytest.raises(ValueError):
        PacketBuffer(capacity=1, reclaim_delay=-0.1)


@given(st.lists(st.sampled_from(["store", "release"]), max_size=60))
def test_occupancy_never_exceeds_capacity(operations):
    """Property: no interleaving of operations overflows the buffer."""
    buffer = PacketBuffer(capacity=5, reclaim_delay=0.5)
    live_ids = []
    now = 0.0
    for op in operations:
        now += 0.1
        if op == "store":
            try:
                live_ids.append(buffer.store(_packet(), now=now))
            except BufferFullError:
                pass
        elif live_ids:
            buffer.release(live_ids.pop(0), now=now)
        assert 0 <= buffer.occupancy(now) <= 5
        assert buffer.units_in_use == len(live_ids)
