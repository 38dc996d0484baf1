"""Tests for proactive rule provisioning (the zero-packet_in baseline)."""

from __future__ import annotations

import pytest

from repro.controllersim import (ProactiveProvisioner, ProactiveRoute,
                                 destination_routes)
from repro.core import buffer_256
from repro.experiments import build_testbed
from repro.openflow import Match
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import HOST1_IP, HOST2_IP, single_packet_flows


def _proactive_testbed(n_flows=20, rate=50, seed=40):
    workload = single_packet_flows(mbps(rate), n_flows=n_flows,
                                   rng=RandomStreams(seed))
    testbed = build_testbed(buffer_256(), workload, seed=seed)
    routes = destination_routes(1, {HOST1_IP: 1, HOST2_IP: 2})
    provisioner = ProactiveProvisioner(testbed.controller, routes)
    provisioner.provision()
    testbed.sim.run(until=0.01)      # rules land before traffic
    testbed.pktgens[0].start(at=0.0)
    testbed.sim.run(until=2.0)
    return testbed, provisioner


def test_destination_routes_structure():
    routes = destination_routes(3, {"10.0.0.2": 2, "10.0.0.1": 1})
    assert len(routes) == 2
    assert all(r.datapath_id == 3 for r in routes)
    assert routes[0].match == Match(ip_dst="10.0.0.1")
    flow_mod = routes[0].to_flow_mod()
    assert flow_mod.idle_timeout == 0.0      # permanent rule


def test_proactive_rules_eliminate_packet_ins():
    testbed, provisioner = _proactive_testbed()
    assert provisioner.rules_pushed == 2
    assert testbed.switches[0].agent.packet_ins_sent.value == 0
    assert testbed.hosts[-1].packets_received == 20
    testbed.shutdown()


def test_proactive_control_traffic_is_constant():
    small, _ = _proactive_testbed(n_flows=5, seed=41)
    large, _ = _proactive_testbed(n_flows=50, seed=42)
    # Control bytes do not grow with flow count (only the 2 flow_mods).
    assert (large.metrics.capture_down.bytes_total
            == small.metrics.capture_down.bytes_total)
    small.shutdown()
    large.shutdown()


def test_proactive_gives_up_per_flow_counters():
    testbed, _ = _proactive_testbed()
    entries = testbed.switches[0].datapath.table.entries()
    assert len(entries) == 2                 # coarse rules only
    to_host2 = next(e for e in entries if e.match.ip_dst == HOST2_IP)
    assert to_host2.packet_count == 20       # every flow lumped together
    testbed.shutdown()


def test_unknown_datapath_rejected():
    workload = single_packet_flows(mbps(10), n_flows=1,
                                   rng=RandomStreams(43))
    testbed = build_testbed(buffer_256(), workload, seed=43)
    provisioner = ProactiveProvisioner(
        testbed.controller, [ProactiveRoute(99, Match(), 1)])
    with pytest.raises(KeyError):
        provisioner.provision()
    testbed.shutdown()
