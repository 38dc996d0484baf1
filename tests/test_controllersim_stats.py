"""Tests for the periodic flow-statistics poller."""

from __future__ import annotations

import hashlib

import pytest

from repro.controllersim import StatsPoller
from repro.core import buffer_256
from repro.experiments import build_testbed
from repro.openflow import Match
from repro.scenarios import build_scenario, line_scenario
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import recurring_flows, single_packet_flows


def _polling_testbed(n_flows=6, period=0.2, workload=None, seed=30):
    if workload is None:
        workload = single_packet_flows(mbps(20), n_flows=n_flows,
                                       rng=RandomStreams(seed))
    testbed = build_testbed(buffer_256(), workload, seed=seed)
    poller = StatsPoller(testbed.sim, testbed.controller, period=period)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    poller.start()
    return testbed, poller


def test_poller_collects_rule_counts():
    testbed, poller = _polling_testbed(n_flows=6, period=0.2)
    testbed.sim.run(until=1.0)
    series = poller.rule_counts[1]
    assert len(series) >= 3
    # All six rules are installed well before the second poll.
    assert series.values[-1] == 6.0
    assert poller.timeouts == 0
    poller.stop()
    testbed.shutdown()


def test_poller_tracks_hit_counters():
    workload = recurring_flows(mbps(10), n_flows=3, rounds=5)
    testbed, poller = _polling_testbed(period=0.5, workload=workload,
                                       seed=31)
    testbed.sim.run(until=3.0)
    # Rounds 2-5 hit: 4 hits x 3 flows = 12 packets through rules.
    assert poller.packet_counts[1].last() == 12.0
    assert poller.byte_counts[1].last() == 12_000.0
    poller.stop()
    testbed.shutdown()


def test_poller_counts_timeouts_with_dead_switch():
    testbed, poller = _polling_testbed(period=0.2)
    # Sever the switch side: stats requests vanish into the void.
    testbed.switches[0].agent.channel.bind_switch(lambda message: None)
    testbed.sim.run(until=3.0)   # each cycle: 0.2s sleep + 0.5s timeout
    assert poller.timeouts >= 3
    assert poller.latest_rule_count(1) is None
    poller.stop()
    testbed.shutdown()


def test_poller_stop_halts_polling():
    testbed, poller = _polling_testbed(period=0.2)
    testbed.sim.run(until=0.5)
    polls_at_stop = poller.polls
    poller.stop()
    testbed.sim.run(until=2.0)
    assert poller.polls <= polls_at_stop + 1
    testbed.shutdown()


def test_poller_match_filter():
    testbed, poller = _polling_testbed(n_flows=6, period=0.2)
    poller.match = Match(ip_src="10.1.0.0")      # flow 0's forged source
    testbed.sim.run(until=1.0)
    assert poller.rule_counts[1].last() == 1.0
    poller.stop()
    testbed.shutdown()


def test_poller_validation():
    testbed, poller = _polling_testbed()
    with pytest.raises(RuntimeError):
        poller.start()          # double start
    with pytest.raises(ValueError):
        StatsPoller(testbed.sim, testbed.controller, period=0)
    with pytest.raises(ValueError):
        StatsPoller(testbed.sim, testbed.controller, reply_timeout=0)
    poller.stop()
    testbed.shutdown()


def test_poller_optionally_polls_port_stats():
    workload = single_packet_flows(mbps(20), n_flows=4,
                                   rng=RandomStreams(32))
    testbed = build_testbed(buffer_256(), workload, seed=32)
    poller = StatsPoller(testbed.sim, testbed.controller, period=0.3,
                         poll_ports=True)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    poller.start()
    testbed.sim.run(until=1.5)
    series = poller.port_tx_bytes[1]
    assert len(series) >= 2
    # All four 1000-byte frames eventually left via port 2.
    assert series.last() >= 4 * 1000
    poller.stop()
    testbed.shutdown()


def _recorded_poll(case, until, reply_timeout=0.5):
    """Run one poller scenario; return its request/reply timeline."""
    workload = single_packet_flows(mbps(20), n_flows=6,
                                   rng=RandomStreams(30))
    if case == "line3":
        testbed = build_scenario(line_scenario(3), buffer_256(), workload,
                                 seed=30)
    else:
        testbed = build_testbed(buffer_256(), workload, seed=30)
    sim = testbed.sim
    controller = testbed.controller
    poller = StatsPoller(sim, controller, period=0.2,
                         reply_timeout=reply_timeout)
    timeline = []
    request = controller.request_flow_stats

    def recording_request(datapath_id=1, match=None):
        timeline.append(("request", sim.now, datapath_id))
        request(datapath_id=datapath_id, match=match)

    controller.request_flow_stats = recording_request
    controller.events.on("flow_stats", lambda time, _reply, dpid:
                         timeline.append(("reply", time, dpid)))
    channel = testbed.switches[0].agent.channel
    if case == "dead":
        channel.bind_switch(lambda message: None)
    elif case == "delayed":
        channel.install_fault_filters(
            to_switch=lambda message, deliver: sim.schedule(
                0.15, deliver, message))
    controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    poller.start()
    sim.run(until=until)
    poller.stop()
    testbed.shutdown()
    return timeline, poller


@pytest.mark.parametrize(
    "case,until,reply_timeout,entries,polls,timeouts,digest", [
        ("healthy", 3.0, 0.5, 28, 14, 0, "115d5c2f480af93f"),
        ("dead", 3.0, 0.5, 5, 5, 4, "f46b6ca5ae361a56"),
        ("line3", 1.5, 0.05, 42, 21, 0, "7d9d008067ec4a77"),
        # Every reply lands after its 0.1 s timeout; the late replies
        # must not start a second polling chain.
        ("delayed", 1.9, 0.1, 12, 6, 6, "7c0036735ad6c68a"),
    ])
def test_poller_request_reply_timeline_is_pinned(
        case, until, reply_timeout, entries, polls, timeouts, digest):
    """Digests of ``repr(timeline)`` as the generator-based poller made it."""
    timeline, poller = _recorded_poll(case, until, reply_timeout)
    assert len(timeline) == entries
    assert (poller.polls, poller.timeouts) == (polls, timeouts)
    assert hashlib.sha256(
        repr(timeline).encode()).hexdigest()[:16] == digest
