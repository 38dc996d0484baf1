"""Tests for testbed assembly and single-run execution."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import (FlowGranularityBuffer, NoBuffer,
                        PacketGranularityBuffer, buffer_256, flow_buffer_256,
                        no_buffer)
from repro.experiments import (PORT_HOST1, PORT_HOST2, build_testbed,
                               default_calibration, run_once)
from repro.shard.seam import EventRecorder
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import single_packet_flows


def test_build_testbed_wires_everything(small_workload_a):
    testbed = build_testbed(buffer_256(), small_workload_a)
    switch, = testbed.switches
    assert isinstance(switch.mechanism, PacketGranularityBuffer)
    assert set(switch.datapath.ports) == {PORT_HOST1, PORT_HOST2}
    assert testbed.topology.node("ovs") is switch
    assert testbed.topology.node("controller") is testbed.controller
    assert testbed.metrics.delay_tracker.total_flows == 40


def test_build_testbed_mechanism_selection(small_workload_a):
    for config, mechanism in ((no_buffer(), NoBuffer),
                              (flow_buffer_256(), FlowGranularityBuffer)):
        testbed = build_testbed(config, small_workload_a)
        assert isinstance(testbed.switches[0].mechanism, mechanism)


def test_run_once_completes_all_flows(small_workload_a):
    result = run_once(buffer_256(), small_workload_a)
    assert result.completed_flows == result.total_flows == 40
    assert result.packets_dropped == 0
    assert result.packet_in_count == 40          # one per new flow
    assert result.flow_mod_count == 40
    assert result.packet_out_count == 40


def test_run_once_measures_delays(small_workload_a):
    result = run_once(buffer_256(), small_workload_a)
    assert len(result.setup_delays) == 40
    assert len(result.controller_delays) == 40
    assert all(d > 0 for d in result.setup_delays)
    assert all(d > 0 for d in result.controller_delays)
    # Switch delay = setup - controller must be positive here.
    assert all(d > 0 for d in result.switch_delays)


def test_run_once_no_buffer_has_zero_occupancy(small_workload_a):
    result = run_once(no_buffer(), small_workload_a)
    assert result.buffer_peak_units == 0
    assert result.buffer_avg_units == 0.0


def test_run_once_buffered_loads_are_lower(small_workload_a):
    buffered = run_once(buffer_256(), small_workload_a)
    unbuffered = run_once(no_buffer(), small_workload_a)
    assert buffered.control_load_up_mbps < unbuffered.control_load_up_mbps / 3
    assert (buffered.control_load_down_mbps
            < unbuffered.control_load_down_mbps / 3)


def test_run_once_is_deterministic(small_workload_a):
    first = run_once(buffer_256(), small_workload_a, seed=5)
    second = run_once(buffer_256(), small_workload_a, seed=5)
    assert first.control_load_up_mbps == second.control_load_up_mbps
    assert first.setup_delays == second.setup_delays
    assert first.packet_in_count == second.packet_in_count


def test_run_once_respects_calibration(small_workload_a):
    from repro.switchsim import SwitchConfig
    from repro.experiments import TestbedCalibration
    from repro.controllersim import ControllerConfig
    slow = TestbedCalibration(
        switch=SwitchConfig(upcall_latency=0.005),
        controller=ControllerConfig())
    fast_result = run_once(buffer_256(), small_workload_a)
    slow_result = run_once(buffer_256(), small_workload_a, calibration=slow)
    assert (slow_result.setup_delay_summary().mean
            > fast_result.setup_delay_summary().mean + 0.004)


def test_packets_arrive_at_host2():
    workload = single_packet_flows(mbps(50), n_flows=10,
                                   rng=RandomStreams(1))
    testbed = build_testbed(buffer_256(), workload)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=1.0)
    assert testbed.hosts[-1].packets_received == 10
    testbed.shutdown()


def test_shutdown_stops_periodic_work(small_workload_a):
    testbed = build_testbed(buffer_256(), small_workload_a)
    testbed.sim.run(until=0.05)
    testbed.shutdown()
    # After shutdown the only queued items should drain quickly and stop.
    testbed.sim.run(until=10.0)
    remaining = testbed.sim.pending_count()
    assert remaining == 0


def test_event_recorder_sees_every_protocol_event(small_workload_a):
    testbed = build_testbed(buffer_256(), small_workload_a, seed=9)
    recorder = EventRecorder()
    recorder.attach(testbed)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=1.0)
    switch = Counter(kind for _time, kind, _uid
                     in recorder.streams[testbed.switches[0].name])
    controller = Counter(kind for _time, kind, _uid
                         in recorder.streams["controller"])
    assert switch["table_miss"] == 40
    assert switch["packet_in_sent"] == 40
    assert controller["packet_in_received"] == 40
    assert switch["flow_installed"] == 40
    assert switch["packet_egress"] == 40
    # Each component's stream is time-ordered.
    for stream in recorder.streams.values():
        times = [time for time, _kind, _uid in stream]
        assert times == sorted(times)
    testbed.shutdown()


def test_python_dash_m_repro_entrypoint():
    import subprocess
    import sys
    result = subprocess.run(
        [sys.executable, "-m", "repro", "table1"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    assert "Table I" in result.stdout
