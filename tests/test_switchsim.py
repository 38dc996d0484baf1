"""Tests for the switch model: CPU, bus, ports, datapath, agent."""

from __future__ import annotations

import pytest

from repro.core import NoBuffer, PacketGranularityBuffer
from repro.netsim import DuplexLink
from repro.openflow import (ControlChannel, EchoRequest, ErrorMsg,
                            FeaturesRequest, FlowMod, Hello, Match,
                            OutputAction, PacketIn, PacketOut, PortNo,
                            BarrierRequest, BarrierReply, EchoReply,
                            FeaturesReply, OFP_NO_BUFFER)
from repro.simkit import Simulator, mbps, usec
from repro.switchsim import AsicCpuBus, Switch, SwitchConfig, SwitchCpu
from repro.packets import udp_packet


def _packet(flow=0, seq=0):
    return udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                      f"10.0.0.{flow + 1}", "10.0.0.2", 1000 + flow, 2000,
                      flow_id=flow, seq_in_flow=seq)


def _harness(sim, mechanism=None, config=None):
    """A switch wired to loopback cables and a scripted controller side."""
    config = config or SwitchConfig()
    mechanism = mechanism or PacketGranularityBuffer(capacity=64)
    ctrl_cable = DuplexLink(sim, "ctrl", mbps(100))
    channel = ControlChannel(sim, ctrl_cable)
    received = []
    channel.bind_controller(received.append)
    switch = Switch(sim, config, mechanism, channel)
    h1 = DuplexLink(sim, "h1", mbps(100))
    h2 = DuplexLink(sim, "h2", mbps(100))
    switch.attach_port(1, h1, switch_side_forward=False)
    switch.attach_port(2, h2, switch_side_forward=False)
    delivered = {1: [], 2: []}
    h1.reverse.connect(delivered[1].append)
    h2.reverse.connect(delivered[2].append)
    return switch, channel, received, delivered, (h1, h2)


# ---------------------------------------------------------------------------
# SwitchCpu / AsicCpuBus
# ---------------------------------------------------------------------------

def test_cpu_usage_includes_baseline(sim):
    config = SwitchConfig(baseline_usage_percent=150.0)
    cpu = SwitchCpu(sim, config)
    assert cpu.usage_percent() == pytest.approx(150.0)
    cpu.execute(1.0)
    sim.run(until=2.0)
    assert cpu.usage_percent() == pytest.approx(200.0)


def test_cpu_datapath_batching_discounts_under_backlog(sim):
    config = SwitchConfig(dp_batch_floor=0.5)
    cpu = SwitchCpu(sim, config)
    done = []
    # Saturate all cores so the next datapath job sees a backlog.
    for _ in range(config.cpu_cores):
        cpu.execute(10.0)
    cpu.execute_datapath(1.0, lambda p: done.append(sim.now))
    sim.run(until=20.0)
    # Effective cost: 1.0 * (0.5 + 0.5/(1+4)) = 0.6; starts at t=10.
    assert done == [pytest.approx(10.6)]


def test_bus_serializes_both_directions(sim):
    bus = AsicCpuBus(sim, bandwidth_bps=8_000_000)   # 1 byte/us
    done = []
    bus.transfer_up(1000, lambda p: done.append(("up", sim.now)))
    bus.transfer_down(1000, lambda p: done.append(("down", sim.now)))
    sim.run(until=sim.now + 1.0)
    assert done == [("up", pytest.approx(0.001)),
                    ("down", pytest.approx(0.002))]
    assert bus.bytes_up == 1000 and bus.bytes_down == 1000


def test_bus_validation(sim):
    with pytest.raises(ValueError):
        AsicCpuBus(sim, bandwidth_bps=0)
    bus = AsicCpuBus(sim, bandwidth_bps=1000)
    with pytest.raises(ValueError):
        bus.transfer_up(0)


# ---------------------------------------------------------------------------
# Datapath behaviour
# ---------------------------------------------------------------------------

def test_miss_generates_packet_in(sim):
    switch, channel, received, delivered, cables = _harness(sim)
    cables[0].forward.send(_packet(), 1000)
    sim.run(until=sim.now + 1.0)
    packet_ins = [m for m in received if isinstance(m, PacketIn)]
    assert len(packet_ins) == 1
    assert packet_ins[0].in_port == 1
    assert packet_ins[0].is_buffered
    assert switch.datapath.packets_missed.value == 1


def test_installed_rule_forwards_without_controller(sim):
    switch, channel, received, delivered, cables = _harness(sim)
    packet = _packet()
    entry_match = Match.exact_from_packet(packet, in_port=1)
    switch.datapath.table.insert(
        __import__("repro.openflow", fromlist=["FlowEntry"]).FlowEntry(
            match=entry_match, actions=(OutputAction(2),)), now=0.0)
    cables[0].forward.send(packet, 1000)
    sim.run(until=sim.now + 1.0)
    assert delivered[2] == [packet]
    # No control-plane involvement (keepalive probes aside).
    assert not [m for m in received if isinstance(m, PacketIn)]
    assert packet.switch_in_at is not None
    assert packet.switch_out_at is not None
    assert packet.switch_out_at > packet.switch_in_at


def test_flow_mod_then_matching_traffic(sim):
    switch, channel, received, delivered, cables = _harness(sim)
    packet = _packet()
    flow_mod = FlowMod(match=Match.exact_from_packet(packet, in_port=1),
                       actions=(OutputAction(2),))
    channel.send_to_switch(flow_mod)
    sim.run(until=sim.now + 1.0)
    assert switch.agent.flow_mods_applied.value == 1
    assert len(switch.datapath.table) == 1
    cables[0].forward.send(packet, 1000)
    sim.run(until=sim.now + 1.0)
    assert delivered[2] == [packet]


def test_buffered_packet_out_releases_and_forwards(sim):
    switch, channel, received, delivered, cables = _harness(sim)
    packet = _packet()
    cables[0].forward.send(packet, 1000)
    sim.run(until=sim.now + 1.0)
    (packet_in,) = [m for m in received if isinstance(m, PacketIn)]
    channel.send_to_switch(PacketOut(actions=(OutputAction(2),),
                                     buffer_id=packet_in.buffer_id,
                                     in_port=1))
    sim.run(until=sim.now + 1.0)
    assert delivered[2] == [packet]
    assert switch.mechanism.units_in_use == 0


def test_unbuffered_packet_out_forwards_enclosed_frame(sim):
    switch, channel, received, delivered, cables = _harness(
        sim, mechanism=NoBuffer())
    packet = _packet()
    cables[0].forward.send(packet, 1000)
    sim.run(until=sim.now + 1.0)
    (packet_in,) = [m for m in received if isinstance(m, PacketIn)]
    assert not packet_in.is_buffered
    channel.send_to_switch(PacketOut(actions=(OutputAction(2),),
                                     buffer_id=OFP_NO_BUFFER,
                                     data_len=packet.wire_len,
                                     packet=packet, in_port=1))
    sim.run(until=sim.now + 1.0)
    assert delivered[2] == [packet]


def test_unknown_buffer_id_triggers_error_message(sim):
    switch, channel, received, delivered, cables = _harness(sim)
    channel.send_to_switch(PacketOut(actions=(OutputAction(2),),
                                     buffer_id=987654, in_port=1))
    sim.run(until=sim.now + 1.0)
    errors = [m for m in received if isinstance(m, ErrorMsg)]
    assert len(errors) == 1
    assert switch.agent.errors_sent.value == 1


def test_flood_action_replicates_to_other_ports(sim):
    switch, channel, received, delivered, cables = _harness(sim)
    packet = _packet()
    cables[0].forward.send(packet, 1000)
    sim.run(until=sim.now + 1.0)
    (packet_in,) = [m for m in received if isinstance(m, PacketIn)]
    channel.send_to_switch(PacketOut(
        actions=(OutputAction(int(PortNo.FLOOD)),),
        buffer_id=packet_in.buffer_id, in_port=1))
    sim.run(until=sim.now + 1.0)
    assert delivered[2] == [packet]      # flooded everywhere except port 1
    assert delivered[1] == []


def test_echo_features_barrier_hello_handling(sim):
    switch, channel, received, delivered, cables = _harness(sim)
    channel.send_to_switch(Hello())
    channel.send_to_switch(EchoRequest(payload_len=8))
    channel.send_to_switch(FeaturesRequest())
    channel.send_to_switch(BarrierRequest())
    sim.run(until=sim.now + 1.0)
    kinds = [type(m) for m in received]
    assert Hello in kinds
    assert EchoReply in kinds
    assert BarrierReply in kinds
    (features,) = [m for m in received if isinstance(m, FeaturesReply)]
    assert features.n_buffers == 64
    assert set(features.ports) == {1, 2}


def test_replies_reference_request_xid(sim):
    switch, channel, received, delivered, cables = _harness(sim)
    request = EchoRequest()
    channel.send_to_switch(request)
    sim.run(until=sim.now + 1.0)
    (reply,) = [m for m in received if isinstance(m, EchoReply)]
    assert reply.in_reply_to == request.xid


def test_flow_mods_apply_in_order(sim):
    """The connection-handler thread serializes rule installation."""
    switch, channel, received, delivered, cables = _harness(sim)
    installed = []
    switch.events.on("flow_installed",
                     lambda t, entry: installed.append(entry.cookie))
    for cookie in range(5):
        channel.send_to_switch(FlowMod(
            match=Match(ip_src=f"10.1.0.{cookie}"),
            actions=(OutputAction(2),), cookie=cookie))
    sim.run(until=sim.now + 1.0)
    assert installed == [0, 1, 2, 3, 4]


def test_flow_mod_with_buffer_id_releases_packet(sim):
    switch, channel, received, delivered, cables = _harness(sim)
    packet = _packet()
    cables[0].forward.send(packet, 1000)
    sim.run(until=sim.now + 1.0)
    (packet_in,) = [m for m in received if isinstance(m, PacketIn)]
    channel.send_to_switch(FlowMod(
        match=Match.exact_from_packet(packet, in_port=1),
        actions=(OutputAction(2),), buffer_id=packet_in.buffer_id))
    sim.run(until=sim.now + 1.0)
    assert delivered[2] == [packet]


def test_usage_percent_counts_apply_thread(sim):
    switch, channel, received, delivered, cables = _harness(sim)
    for i in range(20):
        channel.send_to_switch(FlowMod(match=Match(ip_src=f"10.2.0.{i}"),
                                       actions=(OutputAction(2),)))
    sim.run(until=0.01)
    usage = switch.usage_percent()
    assert usage > switch.config.baseline_usage_percent


def test_expiry_sweep_emits_events(sim):
    switch, channel, received, delivered, cables = _harness(sim)
    expired = []
    switch.events.on("flow_expired", lambda t, e: expired.append(e))
    channel.send_to_switch(FlowMod(match=Match(ip_src="10.3.0.1"),
                                   actions=(OutputAction(2),),
                                   hard_timeout=0.05))
    sim.run(until=0.5)
    assert len(expired) == 1
    switch.shutdown()


def test_port_counters(sim):
    switch, channel, received, delivered, cables = _harness(sim)
    packet = _packet()
    cables[0].forward.send(packet, 1000)
    sim.run(until=sim.now + 1.0)
    port1 = switch.datapath.ports[1]
    assert port1.rx_packets == 1
    assert port1.rx_bytes == packet.wire_len


def test_flow_mod_delete_removes_rules(sim):
    from repro.openflow import FlowModCommand
    switch, channel, received, delivered, cables = _harness(sim)
    for i in range(3):
        channel.send_to_switch(FlowMod(match=Match(ip_src=f"10.7.0.{i}"),
                                       actions=(OutputAction(2),)))
    sim.run(until=sim.now + 1.0)
    assert len(switch.datapath.table) == 3
    deleted = []
    switch.events.on("flows_deleted",
                     lambda t, match, count: deleted.append(count))
    channel.send_to_switch(FlowMod(match=Match(),
                                   command=FlowModCommand.DELETE))
    sim.run(until=sim.now + 1.0)
    assert len(switch.datapath.table) == 0
    assert deleted == [3]


def test_flow_mod_delete_strict_requires_priority(sim):
    from repro.openflow import FlowModCommand
    switch, channel, received, delivered, cables = _harness(sim)
    channel.send_to_switch(FlowMod(match=Match(ip_src="10.8.0.1"),
                                   actions=(OutputAction(2),),
                                   priority=7))
    sim.run(until=sim.now + 1.0)
    channel.send_to_switch(FlowMod(match=Match(ip_src="10.8.0.1"),
                                   command=FlowModCommand.DELETE_STRICT,
                                   priority=8))
    sim.run(until=sim.now + 1.0)
    assert len(switch.datapath.table) == 1  # priority mismatch: kept
    channel.send_to_switch(FlowMod(match=Match(ip_src="10.8.0.1"),
                                   command=FlowModCommand.DELETE_STRICT,
                                   priority=7))
    sim.run(until=sim.now + 1.0)
    assert len(switch.datapath.table) == 0
