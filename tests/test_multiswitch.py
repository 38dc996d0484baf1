"""Tests for the multi-switch line topology extension."""

from __future__ import annotations

import pytest

from repro.core import buffer_256, flow_buffer_256, no_buffer
from repro.scenarios import Testbed, build_scenario, line_scenario
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import batched_multi_packet_flows, single_packet_flows


def _run(config, n_switches=2, n_flows=20, rate=30, seed=8,
         until=2.0) -> Testbed:
    workload = single_packet_flows(mbps(rate), n_flows=n_flows,
                                   rng=RandomStreams(seed))
    testbed = build_scenario(line_scenario(n_switches), config, workload,
                             seed=seed)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=until)
    return testbed


def test_build_validation():
    with pytest.raises(ValueError):
        line_scenario(0)


def test_packets_traverse_the_whole_line():
    testbed = _run(buffer_256(), n_switches=3, n_flows=15)
    assert len(testbed.hosts[-1].received) == 15
    testbed.shutdown()


def test_every_switch_requests_every_new_flow():
    testbed = _run(buffer_256(), n_switches=2, n_flows=20)
    # Each switch misses each new flow once: the compounding the paper's
    # buffer savings multiply across.
    assert testbed.packet_ins_per_switch() == [20, 20]
    assert testbed.total_packet_ins() == 40
    testbed.shutdown()


def test_rules_installed_on_every_switch():
    testbed = _run(buffer_256(), n_switches=2, n_flows=10)
    for switch in testbed.switches:
        assert len(switch.datapath.table) == 10
    testbed.shutdown()


def test_single_switch_line_matches_basic_testbed_accounting():
    testbed = _run(buffer_256(), n_switches=1, n_flows=10)
    assert testbed.packet_ins_per_switch() == [10]
    assert len(testbed.hosts[-1].received) == 10
    testbed.shutdown()


def test_buffered_line_saves_control_bytes_per_hop():
    bare = _run(no_buffer(), n_switches=2, n_flows=20)
    buffered = _run(buffer_256(), n_switches=2, n_flows=20)
    assert (buffered.total_control_bytes()
            < 0.35 * bare.total_control_bytes())
    bare.shutdown()
    buffered.shutdown()


def test_control_savings_scale_with_path_length():
    short_bare = _run(no_buffer(), n_switches=1, n_flows=20)
    long_bare = _run(no_buffer(), n_switches=3, n_flows=20)
    saved_per_hop = (long_bare.total_control_bytes()
                     - short_bare.total_control_bytes()) / 2
    # Every extra hop costs roughly one more full set of control traffic.
    assert saved_per_hop == pytest.approx(
        short_bare.total_control_bytes(), rel=0.25)
    short_bare.shutdown()
    long_bare.shutdown()


def test_flow_granularity_on_a_line():
    workload = batched_multi_packet_flows(mbps(60), n_flows=10,
                                          packets_per_flow=8, batch_size=5,
                                          rng=RandomStreams(9))
    testbed = build_scenario(line_scenario(2), flow_buffer_256(), workload,
                             seed=9)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=3.0)
    # One request per flow per switch, even with 8 packets per flow.
    assert testbed.packet_ins_per_switch() == [10, 10]
    assert len(testbed.hosts[-1].received) == 80
    testbed.shutdown()


def test_per_switch_captures_see_their_own_channel_only():
    testbed = _run(buffer_256(), n_switches=2, n_flows=10)
    for capture in testbed.metrics.captures_up:
        assert capture.count("packetin") == 10
    for capture in testbed.metrics.captures_down:
        assert capture.count("flowmod") == 10
        assert capture.count("packetout") == 10
    testbed.shutdown()
