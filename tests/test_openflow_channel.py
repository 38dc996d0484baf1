"""Tests for the control channel transport."""

from __future__ import annotations

import pytest

from repro.netsim import DuplexLink
from repro.openflow import (ControlChannel, DEFAULT_ENCAPSULATION_OVERHEAD,
                            Hello, PacketIn)
from repro.packets import udp_packet
from repro.simkit import mbps


def _channel(sim, overhead=DEFAULT_ENCAPSULATION_OVERHEAD):
    cable = DuplexLink(sim, "ctrl", mbps(100))
    channel = ControlChannel(sim, cable, encapsulation_overhead=overhead)
    to_controller, to_switch = [], []
    channel.bind_controller(to_controller.append)
    channel.bind_switch(to_switch.append)
    return channel, cable, to_controller, to_switch


def test_messages_delivered_to_bound_handlers(sim):
    channel, cable, to_controller, to_switch = _channel(sim)
    up = Hello()
    down = Hello()
    channel.send_to_controller(up)
    channel.send_to_switch(down)
    sim.run(until=1.0)
    assert to_controller == [up]
    assert to_switch == [down]
    assert channel.to_controller_count == 1
    assert channel.to_switch_count == 1


def test_send_without_binding_raises(sim):
    cable = DuplexLink(sim, "ctrl", mbps(100))
    channel = ControlChannel(sim, cable)
    with pytest.raises(RuntimeError):
        channel.send_to_controller(Hello())
    with pytest.raises(RuntimeError):
        channel.send_to_switch(Hello())


def test_wire_size_adds_encapsulation(sim):
    channel, *_ = _channel(sim, overhead=54)
    message = Hello()
    assert channel.wire_size(message) == message.wire_len + 54


def test_sent_at_is_stamped(sim):
    channel, cable, to_controller, _ = _channel(sim)
    message = Hello()
    sim.schedule(0.25, channel.send_to_controller, message)
    sim.run(until=1.0)
    assert message.sent_at == pytest.approx(0.25)


def test_large_messages_take_longer_on_the_wire(sim):
    channel, cable, to_controller, _ = _channel(sim)
    packet = udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                        "10.0.0.1", "10.0.0.2", 1, 2, frame_len=1000)
    big = PacketIn(packet=packet, data_len=packet.wire_len)
    small = Hello()
    arrival_times = []
    channel.bind_controller(
        lambda m: arrival_times.append((m, sim.now)))
    channel.send_to_controller(big)
    sim.run(until=1.0)
    big_latency = arrival_times[0][1]
    sim2_latency = None
    # Fresh channel for the small message (no queueing interference).
    channel2, *_ = _channel(sim)
    channel2.bind_controller(
        lambda m: arrival_times.append((m, sim.now)))
    start = sim.now
    channel2.send_to_controller(small)
    sim.run(until=start + 1.0)
    small_latency = arrival_times[1][1] - start
    assert big_latency > small_latency


def test_negative_overhead_rejected(sim):
    cable = DuplexLink(sim, "ctrl", mbps(100))
    with pytest.raises(ValueError):
        ControlChannel(sim, cable, encapsulation_overhead=-1)
