"""Tests for the management-plane additions: SetConfig/GetConfig,
FlowRemoved notifications, flow statistics, and buffer age-out."""

from __future__ import annotations

import pytest

from repro.controllersim import ControllerConfig
from repro.core import (BufferConfig, buffer_256, flow_buffer_256)
from repro.experiments import (TestbedCalibration, build_testbed, run_once)
from repro.openflow import (FlowRemoved, FlowStatsReply, GetConfigReply,
                            GetConfigRequest, Match, PacketIn, SetConfig)
from repro.simkit import RandomStreams, mbps
from repro.switchsim import SwitchConfig
from repro.trafficgen import single_packet_flows


def _live_testbed(config=None, n_flows=5, rate=20, seed=12,
                  calibration=None, run_until=1.0):
    workload = single_packet_flows(mbps(rate), n_flows=n_flows,
                                   rng=RandomStreams(seed))
    testbed = build_testbed(config or buffer_256(), workload, seed=seed,
                            calibration=calibration)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=run_until)
    return testbed


# ---------------------------------------------------------------------------
# SetConfig / GetConfig
# ---------------------------------------------------------------------------

def test_set_config_changes_miss_send_len():
    testbed = _live_testbed(n_flows=0 or 1)
    testbed.controller.set_miss_send_len(64)
    testbed.sim.run(until=testbed.sim.now + 0.1)
    assert testbed.switches[0].mechanism.miss_send_len == 64
    testbed.shutdown()


def test_set_config_affects_subsequent_packet_ins():
    workload = single_packet_flows(mbps(20), n_flows=4,
                                   rng=RandomStreams(13))
    testbed = build_testbed(buffer_256(), workload, seed=13)
    channel = testbed.switches[0].agent.channel
    received = []
    channel.bind_controller(received.append)
    channel.send_to_switch(SetConfig(miss_send_len=60))
    testbed.pktgens[0].start(at=0.05)
    testbed.sim.run(until=1.0)
    packet_ins = [m for m in received if isinstance(m, PacketIn)]
    assert packet_ins and all(m.data_len == 60 for m in packet_ins)
    testbed.shutdown()


def test_get_config_round_trip():
    testbed = _live_testbed()
    replies = []
    testbed.controller.events.on  # (controller keeps config replies internal)
    # Observe at the channel level instead.
    original_handler = testbed.controller.handle_message
    channel = testbed.switches[0].agent.channel
    channel.bind_controller(
        lambda m: (replies.append(m) if isinstance(m, GetConfigReply)
                   else original_handler(m, channel, 1)))
    request = GetConfigRequest()
    channel.send_to_switch(request)
    testbed.sim.run(until=testbed.sim.now + 0.1)
    (reply,) = replies
    assert reply.miss_send_len == 128
    assert reply.in_reply_to == request.xid
    testbed.shutdown()


def test_set_config_validation():
    with pytest.raises(ValueError):
        SetConfig(miss_send_len=-1)


# ---------------------------------------------------------------------------
# FlowRemoved
# ---------------------------------------------------------------------------

def test_flow_removed_sent_on_idle_expiry():
    calibration = TestbedCalibration(
        switch=SwitchConfig(),
        controller=ControllerConfig(flow_idle_timeout=0.2))
    # Ask the app to install rules that announce their death.
    testbed = _live_testbed(n_flows=3, calibration=calibration,
                            run_until=0.1)
    # Patch is unnecessary: install our own flagged rule directly.
    from repro.openflow import FlowMod, OutputAction
    testbed.switches[0].agent.channel.send_to_switch(FlowMod(
        match=Match(ip_src="10.50.0.1"), actions=(OutputAction(2),),
        idle_timeout=0.2, send_flow_removed=True))
    removed = []
    testbed.controller.events.on(
        "flow_removed", lambda t, m, dpid: removed.append((m, dpid)))
    testbed.sim.run(until=2.0)
    assert len(removed) == 1
    message, dpid = removed[0]
    assert dpid == 1
    assert message.reason == 0              # idle
    assert testbed.controller.flow_removed_received.value == 1
    assert testbed.switches[0].agent.flow_removed_sent.value == 1
    testbed.shutdown()


@pytest.mark.parametrize("finder", ["packet", "delete"])
def test_flow_removed_sent_when_expiry_is_found_before_the_sweep(finder):
    # The sweep is pushed past the run, so the flagged rule can only be
    # found dead lazily: by a packet's lookup, or by a DELETE's pre-sweep.
    from repro.openflow import FlowMod, FlowModCommand, OutputAction
    from repro.packets import udp_packet
    calibration = TestbedCalibration(
        switch=SwitchConfig(expiry_sweep_interval=10.0),
        controller=ControllerConfig())
    testbed = _live_testbed(n_flows=1, calibration=calibration,
                            run_until=0.1)
    switch = testbed.switches[0]
    switch.agent.channel.send_to_switch(FlowMod(
        match=Match(ip_src="10.52.0.1"), actions=(OutputAction(2),),
        idle_timeout=0.2, send_flow_removed=True))
    removed = []
    testbed.controller.events.on(
        "flow_removed", lambda t, m, dpid: removed.append(m))
    testbed.sim.run(until=0.5)              # expired, not yet swept
    assert not removed
    if finder == "packet":
        switch.datapath.ingress(udp_packet(
            "00:00:00:00:00:01", "00:00:00:00:00:02", "10.52.0.1",
            "10.0.0.2", 1000, 2000), 1)
    else:
        switch.agent.channel.send_to_switch(FlowMod(
            match=Match(ip_src="10.99.0.1"),
            command=FlowModCommand.DELETE))
    testbed.sim.run(until=2.0)
    assert [m.match for m in removed] == [Match(ip_src="10.52.0.1")]
    assert removed[0].reason == 0           # idle
    assert switch.agent.flow_removed_sent.value == 1
    testbed.shutdown()


def test_flow_removed_reports_hard_timeout_reason():
    from repro.openflow import FlowMod, OutputAction
    testbed = _live_testbed(n_flows=1, run_until=0.1)
    testbed.switches[0].agent.channel.send_to_switch(FlowMod(
        match=Match(ip_src="10.51.0.1"), actions=(OutputAction(2),),
        hard_timeout=0.2, send_flow_removed=True))
    removed = []
    testbed.controller.events.on(
        "flow_removed", lambda t, m, dpid: removed.append(m))
    testbed.sim.run(until=2.0)
    assert removed[0].reason == 1           # hard timeout
    assert removed[0].duration >= 0.2
    testbed.shutdown()


def test_unflagged_rules_expire_silently():
    calibration = TestbedCalibration(
        switch=SwitchConfig(),
        controller=ControllerConfig(flow_idle_timeout=0.2))
    testbed = _live_testbed(n_flows=3, calibration=calibration,
                            run_until=2.0)
    # The reactive app doesn't set the flag; rules expired with no notice.
    assert len(testbed.switches[0].datapath.table) == 0
    assert testbed.controller.flow_removed_received.value == 0
    testbed.shutdown()


# ---------------------------------------------------------------------------
# Flow statistics
# ---------------------------------------------------------------------------

def test_flow_stats_round_trip():
    testbed = _live_testbed(n_flows=5, run_until=1.0)
    testbed.controller.request_flow_stats()
    testbed.sim.run(until=testbed.sim.now + 0.2)
    reply = testbed.controller.flow_stats[1]
    assert isinstance(reply, FlowStatsReply)
    assert len(reply.entries) == 5
    # Each installed rule forwarded exactly one packet... the packet that
    # triggered it went out via packet_out, so counts are zero here.
    assert all(e.packet_count == 0 for e in reply.entries)
    assert all(e.duration > 0 for e in reply.entries)
    testbed.shutdown()


def test_flow_stats_respects_match_filter():
    testbed = _live_testbed(n_flows=5, run_until=1.0)
    first_src = "10.1.0.0"   # forged source of flow 0
    testbed.controller.request_flow_stats(
        match=Match(ip_src=first_src))
    testbed.sim.run(until=testbed.sim.now + 0.2)
    reply = testbed.controller.flow_stats[1]
    assert len(reply.entries) == 1
    assert reply.entries[0].match.ip_src == first_src
    testbed.shutdown()


def test_flow_stats_counts_hits():
    from repro.trafficgen import recurring_flows
    workload = recurring_flows(mbps(10), n_flows=3, rounds=4)
    testbed = build_testbed(buffer_256(), workload, seed=14)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=2.0)
    testbed.controller.request_flow_stats()
    testbed.sim.run(until=testbed.sim.now + 0.2)
    reply = testbed.controller.flow_stats[1]
    # Rounds 2-4 hit the installed rules: 3 hits per flow.
    assert sorted(e.packet_count for e in reply.entries) == [3, 3, 3]
    testbed.shutdown()


# ---------------------------------------------------------------------------
# Buffer age-out
# ---------------------------------------------------------------------------

def test_dead_controller_buffer_ages_out():
    calibration = TestbedCalibration(
        switch=SwitchConfig(buffer_ageout=0.5,
                            buffer_ageout_interval=0.1),
        controller=ControllerConfig())
    workload = single_packet_flows(mbps(20), n_flows=4,
                                   rng=RandomStreams(15))
    testbed = build_testbed(buffer_256(), workload, seed=15,
                            calibration=calibration)
    switch = testbed.switches[0]
    switch.agent.channel.bind_controller(lambda m: None)   # dead controller
    testbed.pktgens[0].start(at=0.01)
    testbed.sim.run(until=2.0)
    assert switch.agent.buffer_ageout_drops.value == 4
    assert switch.mechanism.units_in_use == 0
    testbed.shutdown()


def test_ageout_disabled_keeps_buffered_packets():
    calibration = TestbedCalibration(
        switch=SwitchConfig(buffer_ageout=0.0),
        controller=ControllerConfig())
    workload = single_packet_flows(mbps(20), n_flows=4,
                                   rng=RandomStreams(16))
    testbed = build_testbed(buffer_256(), workload, seed=16,
                            calibration=calibration)
    switch = testbed.switches[0]
    switch.agent.channel.bind_controller(lambda m: None)
    testbed.pktgens[0].start(at=0.01)
    testbed.sim.run(until=2.0)
    assert switch.mechanism.units_in_use == 4
    testbed.shutdown()


def test_ageout_config_validation():
    with pytest.raises(ValueError):
        SwitchConfig(buffer_ageout=-1.0)
    with pytest.raises(ValueError):
        SwitchConfig(buffer_ageout_interval=0.0)


# ---------------------------------------------------------------------------
# Port statistics
# ---------------------------------------------------------------------------

def test_port_stats_round_trip():
    testbed = _live_testbed(n_flows=5, run_until=1.0)
    testbed.controller.request_port_stats()
    testbed.sim.run(until=testbed.sim.now + 0.2)
    reply = testbed.controller.port_stats[1]
    by_port = {e.port_no: e for e in reply.entries}
    assert set(by_port) == {1, 2}
    # 5 packets came in on port 1 and left via port 2.
    assert by_port[1].rx_packets == 5
    assert by_port[2].tx_packets == 5
    assert by_port[2].tx_bytes == 5 * 1000
    testbed.shutdown()


def test_port_stats_single_port_filter():
    testbed = _live_testbed(n_flows=3, run_until=1.0)
    testbed.controller.request_port_stats(port_no=2)
    testbed.sim.run(until=testbed.sim.now + 0.2)
    reply = testbed.controller.port_stats[1]
    assert len(reply.entries) == 1
    assert reply.entries[0].port_no == 2
    testbed.shutdown()


def test_port_stats_unknown_port_is_empty():
    testbed = _live_testbed(n_flows=1, run_until=0.5)
    testbed.controller.request_port_stats(port_no=77)
    testbed.sim.run(until=testbed.sim.now + 0.2)
    assert testbed.controller.port_stats[1].entries == ()
    testbed.shutdown()
