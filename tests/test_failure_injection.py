"""Failure-injection tests: silent controllers, buffer overflow, errors.

The mechanisms must degrade gracefully — exactly the situations
Algorithm 1's timeout (line 12-13) and the OFP_NO_BUFFER fallback exist
for.
"""

from __future__ import annotations

import pytest

from repro.core import (BufferConfig, FlowGranularityBuffer, buffer_256,
                        flow_buffer_256)
from repro.experiments import build_testbed
from repro.openflow import ErrorMsg, OutputAction, PacketIn, PacketOut
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import single_packet_flows


def _testbed(config, n_flows=10, rate=20, seed=3):
    workload = single_packet_flows(mbps(rate), n_flows=n_flows,
                                   rng=RandomStreams(seed))
    return build_testbed(config, workload, seed=seed)


class _MuteController:
    """Swallows every packet_in (simulates a hung controller app)."""

    def __init__(self, channel):
        self.received = []
        channel.bind_controller(self.received.append)


def test_silent_controller_triggers_flow_granularity_retries():
    config = BufferConfig(mechanism="flow-granularity", capacity=64,
                          retry_timeout=0.05, max_retries=3)
    testbed = _testbed(config, n_flows=4)
    agent = testbed.switches[0].agent
    mute = _MuteController(agent.channel)   # replaces the real handler
    testbed.pktgens[0].start(at=0.01)
    testbed.sim.run(until=1.0)
    packet_ins = [m for m in mute.received if isinstance(m, PacketIn)]
    retries = [m for m in packet_ins if m.is_retry]
    # 4 initial requests + 3 retries each.
    assert len(packet_ins) == 4 + 12
    assert len(retries) == 12
    assert agent.retries_sent.value == 12
    testbed.shutdown()


def test_silent_controller_eventually_frees_buffer_units():
    config = BufferConfig(mechanism="flow-granularity", capacity=64,
                          retry_timeout=0.02, max_retries=2)
    testbed = _testbed(config, n_flows=4)
    switch = testbed.switches[0]
    _MuteController(switch.agent.channel)
    testbed.pktgens[0].start(at=0.01)
    testbed.sim.run(until=2.0)
    mechanism = switch.mechanism
    assert isinstance(mechanism, FlowGranularityBuffer)
    assert mechanism.flows_abandoned == 4
    assert mechanism.units_in_use == 0        # nothing pinned forever
    testbed.shutdown()


def test_packet_buffer_overflow_falls_back_to_full_frames():
    config = BufferConfig(mechanism="packet-granularity", capacity=2,
                          reclaim_delay=10.0)   # units never come back
    testbed = _testbed(config, n_flows=8, rate=80)
    received = []
    testbed.switches[0].agent.channel.bind_controller(received.append)
    testbed.pktgens[0].start(at=0.01)
    testbed.sim.run(until=1.0)
    packet_ins = [m for m in received if isinstance(m, PacketIn)]
    assert len(packet_ins) == 8
    buffered = [m for m in packet_ins if m.is_buffered]
    fallback = [m for m in packet_ins if not m.is_buffered]
    assert len(buffered) == 2
    assert len(fallback) == 6
    assert all(m.data_len == m.packet.wire_len for m in fallback)
    testbed.shutdown()


def test_stale_packet_out_yields_error_not_crash():
    testbed = _testbed(buffer_256(), n_flows=2)
    agent = testbed.switches[0].agent
    received = []
    agent.channel.bind_controller(received.append)
    testbed.pktgens[0].start(at=0.01)
    testbed.sim.run(until=0.5)
    (first_packet_in, *_rest) = [m for m in received
                                 if isinstance(m, PacketIn)]
    # Release once (valid), then replay the same packet_out (stale).
    for _ in range(2):
        agent.channel.send_to_switch(
            PacketOut(actions=(OutputAction(2),),
                      buffer_id=first_packet_in.buffer_id, in_port=1))
        testbed.sim.run(until=testbed.sim.now + 0.2)
    errors = [m for m in received if isinstance(m, ErrorMsg)]
    assert len(errors) == 1
    assert agent.errors_sent.value == 1
    testbed.shutdown()


def test_flow_granularity_survives_duplicate_release():
    config = BufferConfig(mechanism="flow-granularity", capacity=256,
                          retry_timeout=10.0)   # keep flows pending
    testbed = _testbed(config, n_flows=2)
    agent = testbed.switches[0].agent
    received = []
    agent.channel.bind_controller(received.append)
    testbed.pktgens[0].start(at=0.01)
    testbed.sim.run(until=0.5)
    packet_ins = [m for m in received if isinstance(m, PacketIn)]
    for message in packet_ins:
        for _ in range(2):   # duplicate packet_outs for every flow
            agent.channel.send_to_switch(
                PacketOut(actions=(OutputAction(2),),
                          buffer_id=message.buffer_id, in_port=1))
    testbed.sim.run(until=testbed.sim.now + 0.5)
    # One delivery per flow despite duplicates; duplicates become errors.
    assert len(testbed.hosts[-1].received) == 2
    assert agent.errors_sent.value == 2
    testbed.shutdown()


def test_unknown_destination_is_flooded_not_dropped():
    """Traffic to an unprovisioned destination still reaches hosts."""
    workload = single_packet_flows(mbps(20), n_flows=3,
                                   rng=RandomStreams(5))
    for _, packet in workload.entries:
        # Point every packet at addresses the locator doesn't know.
        object.__setattr__(packet.ip, "dst_ip", "10.99.99.99")
        object.__setattr__(packet.eth, "dst_mac", "00:00:00:00:00:99")
    testbed = build_testbed(buffer_256(), workload, seed=5)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=1.0)
    assert testbed.controller.app.floods == 3
    # Flood goes out every port except the ingress -> host2 sees them.
    assert len(testbed.hosts[-1].received) == 3
    # No rule is installed for floods.
    assert len(testbed.switches[0].datapath.table) == 0
    testbed.shutdown()


def test_flow_table_pressure_evicts_but_keeps_forwarding():
    from repro.experiments import TestbedCalibration
    from repro.switchsim import SwitchConfig
    from repro.controllersim import ControllerConfig
    calibration = TestbedCalibration(
        switch=SwitchConfig(flow_table_capacity=4),
        controller=ControllerConfig())
    workload = single_packet_flows(mbps(20), n_flows=20,
                                   rng=RandomStreams(6))
    testbed = build_testbed(buffer_256(), workload, calibration=calibration,
                            seed=6)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=2.0)
    assert len(testbed.hosts[-1].received) == 20
    table = testbed.switches[0].datapath.table
    assert len(table) <= 4
    assert table.evictions >= 16
    testbed.shutdown()
