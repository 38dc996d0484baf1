"""Conservation invariants: every packet is accounted for, always.

For any mechanism and any workload, after the network drains each sent
packet must be exactly one of: delivered to a host, dropped by the switch
(with a counted reason), or still held in the switch buffer.  These are
the properties that catch lost-packet bugs in the release paths.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (BufferConfig, buffer_16, buffer_256,
                        flow_buffer_256, no_buffer)
from repro.experiments import build_testbed
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import (batched_multi_packet_flows, mixed_tcp_udp,
                              single_packet_flows)

_CONFIGS = [no_buffer(), buffer_16(), buffer_256(), flow_buffer_256()]


def _drain(testbed, horizon=3.0):
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=horizon)
    testbed.shutdown()


def _accounted(testbed) -> int:
    host1, host2 = testbed.hosts
    switch = testbed.switches[0]
    delivered = host2.packets_received + host1.packets_received
    dropped = switch.datapath.packets_dropped.value
    buffered = switch.mechanism.packets_stored
    return delivered + dropped + buffered


@pytest.mark.parametrize("config", _CONFIGS,
                         ids=[c.label for c in _CONFIGS])
def test_every_packet_accounted_workload_a(config):
    workload = single_packet_flows(mbps(60), n_flows=80,
                                   rng=RandomStreams(20))
    testbed = build_testbed(config, workload, seed=20)
    _drain(testbed)
    assert testbed.pktgens[0].packets_sent == 80
    assert _accounted(testbed) == 80


@pytest.mark.parametrize("config", _CONFIGS,
                         ids=[c.label for c in _CONFIGS])
def test_every_packet_accounted_workload_b(config):
    workload = batched_multi_packet_flows(mbps(60), n_flows=10,
                                          packets_per_flow=8, batch_size=5,
                                          rng=RandomStreams(21))
    testbed = build_testbed(config, workload, seed=21)
    _drain(testbed)
    assert _accounted(testbed) == 80


def test_every_packet_accounted_mixed_traffic():
    workload = mixed_tcp_udp(mbps(60), n_tcp_flows=5, packets_per_tcp=10,
                             n_udp_flows=30, rng=RandomStreams(22))
    testbed = build_testbed(buffer_256(), workload, seed=22)
    _drain(testbed)
    assert _accounted(testbed) == 80


def test_dead_controller_conserves_via_buffer_and_ageout():
    """With no replies ever, packets end up buffered then aged out as
    counted drops — never silently vanished."""
    config = BufferConfig(mechanism="packet-granularity", capacity=64)
    workload = single_packet_flows(mbps(30), n_flows=10,
                                   rng=RandomStreams(23))
    testbed = build_testbed(config, workload, seed=23)
    switch = testbed.switches[0]
    switch.agent.channel.bind_controller(lambda m: None)
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=0.3)       # before age-out: all buffered
    assert switch.mechanism.packets_stored == 10
    testbed.sim.run(until=3.0)       # age-out fired
    assert switch.mechanism.packets_stored == 0
    assert switch.agent.buffer_ageout_drops.value == 10
    testbed.shutdown()


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mechanism=st.sampled_from(["no-buffer", "packet-granularity",
                                  "flow-granularity"]),
       capacity=st.sampled_from([2, 8, 64]),
       rate=st.integers(min_value=10, max_value=95),
       n_flows=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=1000))
def test_conservation_property(mechanism, capacity, rate, n_flows, seed):
    """Random mechanism x capacity x rate x size: nothing ever vanishes."""
    config = BufferConfig(mechanism=mechanism, capacity=capacity)
    workload = single_packet_flows(mbps(rate), n_flows=n_flows,
                                   rng=RandomStreams(seed))
    testbed = build_testbed(config, workload, seed=seed)
    uids = []
    testbed.hosts[-1].add_receive_hook(
        lambda _time, packet: uids.append(packet.uid))
    _drain(testbed, horizon=2.0)
    assert _accounted(testbed) == n_flows
    # And nothing is duplicated either: host2 never sees a packet twice.
    assert len(uids) == len(set(uids))
