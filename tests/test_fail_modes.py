"""Tests for connection-interruption behaviour (fail-secure/standalone)."""

from __future__ import annotations

import pytest

from repro.controllersim import ControllerConfig
from repro.core import buffer_256
from repro.experiments import TestbedCalibration, build_testbed
from repro.simkit import RandomStreams, mbps
from repro.switchsim import SwitchConfig
from repro.trafficgen import single_packet_flows


def _calibration(fail_mode="secure", probe=0.2, timeout=0.5):
    return TestbedCalibration(
        switch=SwitchConfig(fail_mode=fail_mode,
                            connection_probe_interval=probe,
                            connection_timeout=timeout,
                            buffer_ageout=0.0),
        controller=ControllerConfig())


def _dead_controller_testbed(fail_mode, n_flows=6, send_at=1.5, seed=50):
    """Traffic arrives only after the controller has been declared dead."""
    workload = single_packet_flows(mbps(20), n_flows=n_flows,
                                   rng=RandomStreams(seed))
    testbed = build_testbed(buffer_256(), workload, seed=seed,
                            calibration=_calibration(fail_mode))
    channel = testbed.switches[0].agent.channel
    channel.bind_controller(lambda message: None)   # black hole
    testbed.pktgens[0].start(at=send_at)
    return testbed


def test_silence_triggers_disconnection_event():
    testbed = _dead_controller_testbed("secure", n_flows=1, send_at=5.0)
    switch = testbed.switches[0]
    events = []
    switch.events.on("controller_disconnected", lambda t: events.append(t))
    testbed.sim.run(until=2.0)
    assert not switch.agent.connected
    assert len(events) == 1
    assert 0.5 <= events[0] <= 1.0     # timeout + one probe period
    testbed.shutdown()


def test_fail_secure_drops_misses_while_disconnected():
    testbed = _dead_controller_testbed("secure")
    testbed.sim.run(until=3.0)
    switch = testbed.switches[0]
    assert switch.agent.misses_dropped_disconnected.value == 6
    assert switch.agent.packet_ins_sent.value == 0
    assert switch.datapath.packets_dropped.value == 6
    assert len(testbed.hosts[-1].received) == 0
    testbed.shutdown()


def test_fail_standalone_floods_misses_while_disconnected():
    testbed = _dead_controller_testbed("standalone")
    testbed.sim.run(until=3.0)
    agent = testbed.switches[0].agent
    assert agent.misses_flooded_disconnected.value == 6
    assert agent.packet_ins_sent.value == 0
    # Flooding out every other port still reaches the destination.
    assert len(testbed.hosts[-1].received) == 6
    testbed.shutdown()


def test_installed_rules_keep_forwarding_while_disconnected():
    """Fail-secure only affects the miss path; hits still flow."""
    workload = single_packet_flows(mbps(20), n_flows=4,
                                   rng=RandomStreams(51))
    testbed = build_testbed(buffer_256(), workload, seed=51,
                            calibration=_calibration("secure"))
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)      # rules install while healthy
    testbed.sim.run(until=0.5)
    assert len(testbed.hosts[-1].received) == 4
    # Now kill the controller and resend the same flows.
    agent = testbed.switches[0].agent
    agent.channel.bind_controller(lambda message: None)
    testbed.sim.run(until=2.0)
    assert not agent.connected
    replay = single_packet_flows(mbps(20), n_flows=4,
                                 rng=RandomStreams(51))
    from repro.trafficgen import PacketGenerator
    PacketGenerator(testbed.sim, testbed.hosts[0], replay).start()
    testbed.sim.run(until=3.0)
    assert len(testbed.hosts[-1].received) == 8   # hits unaffected
    testbed.shutdown()


def test_reconnection_restores_reactive_operation():
    testbed = _dead_controller_testbed("secure", n_flows=3, send_at=1.0)
    switch = testbed.switches[0]
    reconnects = []
    switch.events.on("controller_reconnected",
                     lambda t: reconnects.append(t))
    testbed.sim.run(until=2.0)
    assert not switch.agent.connected
    # Controller comes back: restore the real handler.
    testbed.controller.attach_channel(switch.agent.channel, datapath_id=1)
    testbed.sim.run(until=3.0)
    assert switch.agent.connected
    assert len(reconnects) == 1
    # New traffic is handled reactively again.
    replay = single_packet_flows(mbps(20), n_flows=3,
                                 rng=RandomStreams(52))
    from repro.trafficgen import PacketGenerator
    PacketGenerator(testbed.sim, testbed.hosts[0], replay).start()
    testbed.sim.run(until=4.0)
    assert switch.agent.packet_ins_sent.value == 3
    assert len(testbed.hosts[-1].received) == 3
    testbed.shutdown()


def test_probe_disabled_means_always_connected():
    calibration = TestbedCalibration(
        switch=SwitchConfig(connection_probe_interval=0.0,
                            buffer_ageout=0.0),
        controller=ControllerConfig())
    workload = single_packet_flows(mbps(20), n_flows=2,
                                   rng=RandomStreams(53))
    testbed = build_testbed(buffer_256(), workload, seed=53,
                            calibration=calibration)
    agent = testbed.switches[0].agent
    agent.channel.bind_controller(lambda message: None)
    testbed.pktgens[0].start(at=2.0)
    testbed.sim.run(until=3.0)
    assert agent.connected          # never declared dead
    assert agent.packet_ins_sent.value == 2
    testbed.shutdown()


def test_fail_mode_validation():
    with pytest.raises(ValueError):
        SwitchConfig(fail_mode="panic")
    with pytest.raises(ValueError):
        SwitchConfig(connection_timeout=0.0)
    with pytest.raises(ValueError):
        SwitchConfig(connection_probe_interval=-1.0)
