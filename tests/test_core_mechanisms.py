"""Tests for the three buffer mechanisms (the paper's policies)."""

from __future__ import annotations

import pytest

from repro.core import (FlowGranularityBuffer, NoBuffer,
                        PacketGranularityBuffer)
from repro.openflow import OFP_NO_BUFFER, OutputAction, PacketOut, FlowMod
from repro.packets import udp_packet


def _packet(flow=0, seq=0, frame_len=1000):
    return udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                      f"10.0.0.{flow + 1}", "10.0.0.2", 1000 + flow, 2000,
                      frame_len=frame_len, flow_id=flow, seq_in_flow=seq)


# ---------------------------------------------------------------------------
# NoBuffer
# ---------------------------------------------------------------------------

def test_no_buffer_encloses_full_frame():
    mechanism = NoBuffer()
    packet = _packet()
    decision = mechanism.on_miss(packet, in_port=1, now=0.0)
    assert decision.send_packet_in
    assert decision.buffer_id == OFP_NO_BUFFER
    assert decision.data_len == packet.wire_len
    assert not decision.stored
    assert mechanism.units_in_use == 0
    assert mechanism.capacity == 0


def test_no_buffer_packet_out_forwards_enclosed_packet():
    mechanism = NoBuffer()
    packet = _packet()
    message = PacketOut(actions=(OutputAction(2),),
                        buffer_id=OFP_NO_BUFFER,
                        data_len=packet.wire_len, packet=packet)
    result = mechanism.on_packet_out(message, now=0.0)
    assert result.packets == (packet,)
    assert not result.unknown


# ---------------------------------------------------------------------------
# PacketGranularityBuffer
# ---------------------------------------------------------------------------

def test_packet_granularity_truncates_to_miss_send_len():
    mechanism = PacketGranularityBuffer(capacity=4, miss_send_len=128)
    packet = _packet()
    decision = mechanism.on_miss(packet, in_port=1, now=0.0)
    assert decision.send_packet_in
    assert decision.buffer_id != OFP_NO_BUFFER
    assert decision.data_len == 128
    assert decision.stored
    assert mechanism.units_in_use == 1


def test_packet_granularity_each_packet_gets_own_unit():
    mechanism = PacketGranularityBuffer(capacity=8)
    first = mechanism.on_miss(_packet(0, 0), in_port=1, now=0.0)
    second = mechanism.on_miss(_packet(0, 1), in_port=1, now=0.0)
    assert first.buffer_id != second.buffer_id
    assert mechanism.units_in_use == 2
    # Both trigger packet_ins - the redundancy the paper's §V removes.
    assert first.send_packet_in and second.send_packet_in


def test_packet_granularity_degrades_when_full():
    mechanism = PacketGranularityBuffer(capacity=1)
    mechanism.on_miss(_packet(0), in_port=1, now=0.0)
    overflow = mechanism.on_miss(_packet(1), in_port=1, now=0.0)
    assert overflow.send_packet_in
    assert overflow.buffer_id == OFP_NO_BUFFER
    assert overflow.data_len == _packet(1).wire_len
    assert not overflow.stored


def test_packet_granularity_packet_out_releases_one():
    mechanism = PacketGranularityBuffer(capacity=4)
    packet = _packet()
    decision = mechanism.on_miss(packet, in_port=1, now=0.0)
    message = PacketOut(actions=(OutputAction(2),),
                        buffer_id=decision.buffer_id)
    result = mechanism.on_packet_out(message, now=1.0)
    assert result.packets == (packet,)
    assert mechanism.units_in_use == 0


def test_packet_granularity_unknown_buffer_id_flagged():
    mechanism = PacketGranularityBuffer(capacity=4)
    message = PacketOut(actions=(OutputAction(2),), buffer_id=999999)
    result = mechanism.on_packet_out(message, now=0.0)
    assert result.unknown
    assert result.packets == ()


def test_packet_granularity_flow_mod_release():
    mechanism = PacketGranularityBuffer(capacity=4)
    packet = _packet()
    decision = mechanism.on_miss(packet, in_port=1, now=0.0)
    message = FlowMod(buffer_id=decision.buffer_id,
                      actions=(OutputAction(2),))
    result = mechanism.on_flow_mod_release(message, now=1.0)
    assert result.packets == (packet,)


def test_packet_granularity_flow_mod_without_buffer_id_is_noop():
    mechanism = PacketGranularityBuffer(capacity=4)
    result = mechanism.on_flow_mod_release(FlowMod(), now=0.0)
    assert result.packets == () and not result.unknown


def test_small_frame_data_len_capped_at_frame():
    mechanism = PacketGranularityBuffer(capacity=4, miss_send_len=128)
    small = _packet(frame_len=60)
    decision = mechanism.on_miss(small, in_port=1, now=0.0)
    assert decision.data_len == 60


# ---------------------------------------------------------------------------
# FlowGranularityBuffer (Algorithms 1 and 2)
# ---------------------------------------------------------------------------

def test_flow_granularity_only_first_packet_triggers_request(sim):
    mechanism = FlowGranularityBuffer(sim, capacity=8)
    first = mechanism.on_miss(_packet(0, 0), in_port=1, now=0.0)
    later = [mechanism.on_miss(_packet(0, seq), in_port=1, now=0.0)
             for seq in range(1, 6)]
    assert first.send_packet_in
    assert all(not d.send_packet_in for d in later)
    assert all(d.stored for d in later)
    assert all(d.buffer_id == first.buffer_id for d in later)
    assert mechanism.units_in_use == 1
    assert mechanism.packets_stored == 6


def test_flow_granularity_distinct_flows_distinct_units(sim):
    mechanism = FlowGranularityBuffer(sim, capacity=8)
    a = mechanism.on_miss(_packet(0), in_port=1, now=0.0)
    b = mechanism.on_miss(_packet(1), in_port=1, now=0.0)
    assert a.buffer_id != b.buffer_id
    assert a.send_packet_in and b.send_packet_in
    assert mechanism.units_in_use == 2


def test_flow_granularity_packet_out_releases_whole_flow(sim):
    mechanism = FlowGranularityBuffer(sim, capacity=8)
    packets = [_packet(0, seq) for seq in range(4)]
    decision = mechanism.on_miss(packets[0], in_port=1, now=0.0)
    for packet in packets[1:]:
        mechanism.on_miss(packet, in_port=1, now=0.0)
    message = PacketOut(actions=(OutputAction(2),),
                        buffer_id=decision.buffer_id)
    result = mechanism.on_packet_out(message, now=1.0)
    assert result.packets == tuple(packets)     # Algorithm 2's drain loop
    assert mechanism.units_in_use == 0
    sim.run()   # timer cancelled, nothing pending fires


def test_flow_granularity_degrades_when_units_exhausted(sim):
    mechanism = FlowGranularityBuffer(sim, capacity=1)
    mechanism.on_miss(_packet(0), in_port=1, now=0.0)
    overflow = mechanism.on_miss(_packet(1), in_port=1, now=0.0)
    assert overflow.send_packet_in
    assert overflow.buffer_id == OFP_NO_BUFFER
    assert not overflow.stored


def test_flow_granularity_timeout_resends_request(sim):
    mechanism = FlowGranularityBuffer(sim, capacity=8, retry_timeout=0.05,
                                      max_retries=3)
    retries = []
    mechanism.set_retry_sender(lambda packet, bid: retries.append((packet,
                                                                   bid)))
    decision = mechanism.on_miss(_packet(0, 0), in_port=1, now=0.0)
    sim.run(until=0.12)
    assert len(retries) == 2                      # t=0.05 and t=0.10
    assert all(bid == decision.buffer_id for _, bid in retries)


def test_flow_granularity_retry_carries_latest_packet(sim):
    mechanism = FlowGranularityBuffer(sim, capacity=8, retry_timeout=0.05)
    retries = []
    mechanism.set_retry_sender(lambda packet, bid: retries.append(packet))
    mechanism.on_miss(_packet(0, 0), in_port=1, now=0.0)
    late = _packet(0, 1)
    sim.schedule(0.02, mechanism.on_miss, late, 1, 0.02)
    sim.run(until=0.06)
    assert retries[-1] is late


def test_flow_granularity_release_cancels_retries(sim):
    mechanism = FlowGranularityBuffer(sim, capacity=8, retry_timeout=0.05)
    retries = []
    mechanism.set_retry_sender(lambda p, b: retries.append(b))
    decision = mechanism.on_miss(_packet(0), in_port=1, now=0.0)
    sim.schedule(0.01, lambda: mechanism.on_packet_out(
        PacketOut(actions=(OutputAction(2),),
                  buffer_id=decision.buffer_id), 0.01))
    sim.run(until=0.5)
    assert retries == []


def test_flow_granularity_abandons_after_max_retries(sim):
    mechanism = FlowGranularityBuffer(sim, capacity=8, retry_timeout=0.01,
                                      max_retries=2)
    mechanism.set_retry_sender(lambda p, b: None)
    mechanism.on_miss(_packet(0), in_port=1, now=0.0)
    sim.run(until=0.2)
    assert mechanism.flows_abandoned == 1
    assert mechanism.units_in_use == 0            # unit was freed


def test_flow_granularity_flow_mod_release(sim):
    mechanism = FlowGranularityBuffer(sim, capacity=8)
    packet = _packet(0)
    decision = mechanism.on_miss(packet, in_port=1, now=0.0)
    result = mechanism.on_flow_mod_release(
        FlowMod(buffer_id=decision.buffer_id, actions=(OutputAction(2),)),
        now=1.0)
    assert result.packets == (packet,)


def test_flow_granularity_shutdown_cancels_timers(sim):
    mechanism = FlowGranularityBuffer(sim, capacity=8, retry_timeout=0.01)
    fired = []
    mechanism.set_retry_sender(lambda p, b: fired.append(b))
    mechanism.on_miss(_packet(0), in_port=1, now=0.0)
    mechanism.shutdown()
    sim.run(until=1.0)
    assert fired == []


def test_mechanism_validation(sim):
    with pytest.raises(ValueError):
        PacketGranularityBuffer(capacity=4, miss_send_len=-1)
    with pytest.raises(ValueError):
        FlowGranularityBuffer(sim, capacity=4, retry_timeout=0.0)
    with pytest.raises(ValueError):
        FlowGranularityBuffer(sim, capacity=4, max_retries=-1)
