"""Tests for the egress QoS scheduler (the paper's future-work extension)."""

from __future__ import annotations

import pytest

from repro.netsim import Link
from repro.packets import EthernetHeader, IPv4Header, Packet, PROTO_UDP, UDPHeader
from repro.simkit import Simulator, mbps
from repro.switchsim import (CLASS_ASSURED, CLASS_BEST_EFFORT,
                             CLASS_EXPEDITED, PriorityEgressScheduler,
                             classify_dscp)
from repro.switchsim.qos import attach_scheduler


def _packet(dscp=0, frame_len=1000, tag=0):
    eth = EthernetHeader("00:00:00:00:00:01", "00:00:00:00:00:02")
    ip = IPv4Header("10.0.0.1", "10.0.0.2", protocol=PROTO_UDP, dscp=dscp)
    l4 = UDPHeader(1000 + tag, 2000)
    return Packet(eth=eth, ip=ip, l4=l4, payload_len=frame_len - 42)


def _scheduler(sim, bandwidth=mbps(100), queue_limit=1024):
    link = Link(sim, "egress", bandwidth, propagation_delay=0.0)
    delivered = []
    link.connect(lambda p: delivered.append((sim.now, p)))
    return PriorityEgressScheduler(sim, link, queue_limit=queue_limit), delivered


def test_classify_dscp_bands():
    assert classify_dscp(_packet(dscp=0)) == CLASS_BEST_EFFORT
    assert classify_dscp(_packet(dscp=7)) == CLASS_BEST_EFFORT
    assert classify_dscp(_packet(dscp=10)) == CLASS_ASSURED
    assert classify_dscp(_packet(dscp=46)) == CLASS_EXPEDITED
    no_ip = Packet(eth=EthernetHeader("00:00:00:00:00:01",
                                      "00:00:00:00:00:02"))
    assert classify_dscp(no_ip) == CLASS_BEST_EFFORT


def test_idle_link_transmits_immediately(sim):
    scheduler, delivered = _scheduler(sim)
    scheduler.enqueue(_packet())
    sim.run(until=1.0)
    assert len(delivered) == 1
    assert scheduler.backlog == 0


def test_priority_overtakes_queued_best_effort(sim):
    scheduler, delivered = _scheduler(sim)
    # Fill with best-effort; one is in flight, the rest queue.
    for tag in range(5):
        scheduler.enqueue(_packet(dscp=0, tag=tag))
    # An expedited packet arrives late but must go second (right after
    # the frame already on the wire).
    expedited = _packet(dscp=46, tag=99)
    scheduler.enqueue(expedited)
    sim.run(until=1.0)
    order = [p for _, p in delivered]
    assert order[1] is expedited
    assert len(delivered) == 6


def test_fifo_within_a_class(sim):
    scheduler, delivered = _scheduler(sim)
    packets = [_packet(dscp=46, tag=i) for i in range(4)]
    for packet in packets:
        scheduler.enqueue(packet)
    sim.run(until=1.0)
    assert [p for _, p in delivered] == packets


def test_strict_priority_starves_lower_classes(sim):
    """With a saturating expedited stream, best-effort waits it out."""
    scheduler, delivered = _scheduler(sim, bandwidth=mbps(8))   # 1ms/frame
    best_effort = _packet(dscp=0, tag=7)
    scheduler.enqueue(best_effort)
    for tag in range(10):
        scheduler.enqueue(_packet(dscp=46, tag=tag))
    sim.run(until=1.0)
    # While a filler frame is on the wire, a later expedited arrival
    # beats an earlier-queued best-effort one.
    scheduler.enqueue(_packet(dscp=0, tag=6))    # goes on the wire (idle)
    scheduler.enqueue(_packet(dscp=0, tag=8))    # queues
    scheduler.enqueue(_packet(dscp=46, tag=20))  # queues after, wins
    sim.run(until=2.0)
    classes = [classify_dscp(p) for _, p in delivered]
    # The final two deliveries: expedited before the queued best-effort.
    assert classes[-2] == CLASS_EXPEDITED
    assert classes[-1] == CLASS_BEST_EFFORT


def test_queue_limit_tail_drops(sim):
    scheduler, delivered = _scheduler(sim, bandwidth=mbps(1),
                                      queue_limit=2)
    results = [scheduler.enqueue(_packet(dscp=0, tag=i)) for i in range(5)]
    # First goes to the wire, two queue, the rest tail-drop.
    assert results == [True, True, True, False, False]
    assert scheduler.stats[CLASS_BEST_EFFORT].dropped == 2
    sim.run(until=30.0)
    assert len(delivered) == 3


def test_per_class_stats(sim):
    scheduler, delivered = _scheduler(sim, bandwidth=mbps(8))
    for tag in range(3):
        scheduler.enqueue(_packet(dscp=46, tag=tag))
    sim.run(until=1.0)
    stats = scheduler.stats[CLASS_EXPEDITED]
    assert stats.enqueued == 3
    assert stats.transmitted == 3
    # First frame had no wait; second waited 1ms; third 2ms.
    assert stats.mean_queueing_delay() == pytest.approx(0.001, rel=0.05)
    assert stats.max_queue_length == 2
    assert any("expedited" in line for line in scheduler.summary())


def test_invalid_configuration(sim):
    link = Link(sim, "l", mbps(10))
    link.connect(lambda p: None)
    with pytest.raises(ValueError):
        PriorityEgressScheduler(sim, link, queue_limit=0)
    scheduler = PriorityEgressScheduler(sim, link)
    with pytest.raises(ValueError):
        scheduler.enqueue(_packet(), service_class=99)


def test_attach_scheduler_to_switch_port(sim):
    """End to end: the datapath's egress flows through the scheduler."""
    from repro.core import PacketGranularityBuffer
    from repro.netsim import DuplexLink
    from repro.openflow import (ControlChannel, FlowEntry, Match,
                                OutputAction)
    from repro.switchsim import Switch, SwitchConfig

    ctrl = DuplexLink(sim, "ctrl", mbps(100))
    channel = ControlChannel(sim, ctrl)
    channel.bind_controller(lambda m: None)
    switch = Switch(sim, SwitchConfig(), PacketGranularityBuffer(16),
                    channel)
    h1 = DuplexLink(sim, "h1", mbps(100))
    h2 = DuplexLink(sim, "h2", mbps(100))
    switch.attach_port(1, h1, switch_side_forward=False)
    port2 = switch.attach_port(2, h2, switch_side_forward=False)
    delivered = []
    h2.reverse.connect(delivered.append)
    scheduler = attach_scheduler(port2, sim)

    packet = _packet(dscp=46)
    switch.datapath.table.insert(
        FlowEntry(match=Match.exact_from_packet(packet, in_port=1),
                  actions=(OutputAction(2),)), now=0.0)
    h1.forward.send(packet, packet.wire_len)
    sim.run(until=1.0)
    assert delivered == [packet]
    assert scheduler.stats[CLASS_EXPEDITED].transmitted == 1
    switch.shutdown()
