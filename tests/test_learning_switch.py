"""Bidirectional traffic with a pure learning controller (no provisioning).

With an empty host locator the app behaves like a classic learning
switch: unknown destinations flood, and every packet_in teaches the
controller where its source lives.  The reverse direction then gets a
proper rule — exercising the host2→host1 data path the paper's
unidirectional workloads never touch.
"""

from __future__ import annotations

from repro.controllersim import HostLocator
from repro.core import buffer_256
from repro.experiments import build_testbed
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import HOST1_IP, HOST1_MAC, HOST2_IP, HOST2_MAC
from repro.packets import udp_packet
from repro.trafficgen import single_packet_flows


def _forward_packet():
    return udp_packet(HOST1_MAC, HOST2_MAC, HOST1_IP, HOST2_IP,
                      5000, 6000, flow_id=0, seq_in_flow=0)


def _reverse_packet():
    return udp_packet(HOST2_MAC, HOST1_MAC, HOST2_IP, HOST1_IP,
                      6000, 5000, flow_id=1, seq_in_flow=0)


def _learning_testbed():
    workload = single_packet_flows(mbps(10), n_flows=1,
                                   rng=RandomStreams(90))
    testbed = build_testbed(buffer_256(), workload, seed=90)
    # Strip the provisioned knowledge: pure learning.
    testbed.controller.app.locator = HostLocator()
    testbed.controller.start_handshake()
    return testbed


def test_unknown_destination_floods_then_reverse_gets_a_rule():
    testbed = _learning_testbed()
    sim = testbed.sim
    host1, host2 = testbed.hosts
    switch = testbed.switches[0]

    # Forward: host1 -> host2.  Destination unknown -> flooded, no rule.
    sim.schedule(0.02, host1.send, _forward_packet())
    sim.run(until=0.5)
    assert host2.packets_received == 1
    assert testbed.controller.app.floods == 1
    assert len(switch.datapath.table) == 0

    # Reverse: host2 -> host1.  host1 was learned from the first
    # packet_in, so this one gets a real rule (no flood).
    sim.schedule(0.0, host2.send, _reverse_packet())
    sim.run(until=1.0)
    assert host1.packets_received == 1
    assert testbed.controller.app.floods == 1        # unchanged
    assert len(switch.datapath.table) == 1

    # And subsequent reverse traffic is pure fast path.
    packet_ins_before = switch.agent.packet_ins_sent.value
    sim.schedule(0.0, host2.send, _reverse_packet())
    sim.run(until=1.5)
    assert host1.packets_received == 2
    assert switch.agent.packet_ins_sent.value == packet_ins_before
    testbed.shutdown()


def test_learned_locations_are_per_source_port():
    testbed = _learning_testbed()
    sim = testbed.sim
    sim.schedule(0.02, testbed.hosts[0].send, _forward_packet())
    sim.run(until=0.5)
    locator = testbed.controller.app.locator
    assert locator.locate(ip=HOST1_IP, datapath_id=1) == 1
    assert locator.locate(ip=HOST2_IP, datapath_id=1) is None
    testbed.shutdown()
