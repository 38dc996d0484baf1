"""Fault-injection tests: spec semantics, determinism, cache keying,
and the re-request path the faults exist to exercise."""

from __future__ import annotations

import dataclasses

import pytest

from repro.controllersim import ControllerConfig
from repro.core import BufferConfig, buffer_256, flow_buffer_256
from repro.experiments import (TestbedCalibration, build_testbed, run_once,
                               sweep, workload_a_factory)
from repro.faults import (FaultSpec, NO_FAULTS, install_faults, loss_fault,
                          parse_fault)
from repro.openflow import (ErrorMsg, ErrorType, OutputAction, PacketIn,
                            PacketOut)
from repro.parallel import SweepJob, register_jobs, task_key
from repro.simkit import RandomStreams, mbps
from repro.switchsim import SwitchConfig
from repro.trafficgen import single_packet_flows

_FACTORY = workload_a_factory(n_flows=25)


def _workload(n_flows=10, seed=9, rate=20):
    return single_packet_flows(mbps(rate), n_flows=n_flows,
                               rng=RandomStreams(seed))


# ---------------------------------------------------------------------------
# FaultSpec semantics
# ---------------------------------------------------------------------------

def test_null_spec_identity():
    assert NO_FAULTS.is_null
    assert NO_FAULTS.name == "none"
    assert loss_fault(0.0).is_null
    assert FaultSpec() == NO_FAULTS
    assert not loss_fault(0.01).is_null
    assert loss_fault(0.01).name == "loss:0.01"


def test_loss_fault_is_symmetric():
    spec = loss_fault(0.02)
    assert spec.loss_up == spec.loss_down == 0.02


def test_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        FaultSpec(loss_up=1.5)
    with pytest.raises(ValueError):
        FaultSpec(dup_down=-0.1)
    with pytest.raises(ValueError):
        FaultSpec(jitter_up=-0.001)
    with pytest.raises(ValueError):
        FaultSpec(stall_windows=((2.0, 1.0),))     # end <= start
    with pytest.raises(ValueError):
        FaultSpec(stall_windows=((-1.0, 1.0),))    # negative start
    with pytest.raises(ValueError):
        FaultSpec(ageout=0.0)
    with pytest.raises(ValueError):
        FaultSpec(ageout_interval=-1.0)


def test_stall_windows_canonicalized_and_queried():
    a = FaultSpec(stall_windows=((2.0, 3.0), (0.5, 1.0)))
    b = FaultSpec(stall_windows=((0.5, 1.0), (2.0, 3.0)))
    assert a == b
    assert hash(a) == hash(b)
    assert a.cache_token() == b.cache_token()
    assert a.stall_windows == ((0.5, 1.0), (2.0, 3.0))
    assert a.stalled_at(0.7)
    assert a.stalled_at(2.0)       # start inclusive
    assert not a.stalled_at(1.0)   # end exclusive
    assert not a.stalled_at(1.5)


def test_parse_fault_grammar():
    spec = parse_fault("loss=0.01")
    assert spec == loss_fault(0.01)
    spec = parse_fault("loss_up=0.02,jitter=0.0005,stall=0.5:0.8+1.2:1.4,"
                       "ageout=0.05")
    assert spec.loss_up == 0.02 and spec.loss_down == 0.0
    assert spec.jitter_up == spec.jitter_down == 0.0005
    assert spec.stall_windows == ((0.5, 0.8), (1.2, 1.4))
    assert spec.ageout == 0.05
    with pytest.raises(ValueError):
        parse_fault("loss")                        # missing '='
    with pytest.raises(ValueError):
        parse_fault("frobnicate=1")                # unknown key
    with pytest.raises(ValueError):
        parse_fault("stall=0.5")                   # window needs start:end
    with pytest.raises(ValueError):
        parse_fault("loss=2.0")                    # invalid probability


def test_cache_token_distinguishes_every_knob():
    tokens = {
        NO_FAULTS.cache_token(),
        loss_fault(0.01).cache_token(),
        loss_fault(0.02).cache_token(),
        FaultSpec(loss_up=0.01).cache_token(),
        FaultSpec(loss_down=0.01).cache_token(),
        FaultSpec(dup_up=0.1).cache_token(),
        FaultSpec(jitter_down=0.001).cache_token(),
        FaultSpec(stall_windows=((1.0, 2.0),)).cache_token(),
        FaultSpec(ageout=0.5).cache_token(),
        FaultSpec(ageout=0.5, ageout_interval=0.1).cache_token(),
    }
    assert len(tokens) == 10


def test_spec_survives_pickle():
    import pickle
    spec = parse_fault("loss=0.01,dup_down=0.1,stall=1:2")
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.cache_token() == spec.cache_token()


# ---------------------------------------------------------------------------
# Result-cache keying (regression: lossy runs must never poison
# faultless lookups)
# ---------------------------------------------------------------------------

def _job(faults=None):
    job = SweepJob(config=buffer_256(), factory=_FACTORY, rates_mbps=(20,),
                   repetitions=1, base_seed=1, faults=faults)
    register_jobs([job])
    return job


def _key_of(job):
    return task_key(job, job.tasks()[0])


def test_fault_spec_participates_in_cache_key():
    base = _key_of(_job())
    assert _key_of(_job()) == base                          # stable
    assert _key_of(_job(faults=NO_FAULTS)) == base          # None ≡ null
    lossy = _key_of(_job(faults=loss_fault(0.01)))
    assert lossy != base
    assert _key_of(_job(faults=loss_fault(0.02))) != lossy
    assert _key_of(_job(faults=FaultSpec(
        stall_windows=((1.0, 2.0),)))) != base


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def _snapshot_dict(metrics):
    """RunMetrics as a comparable dict (TimeSeries has no __eq__)."""
    def norm(value):
        if hasattr(value, "times") and hasattr(value, "values"):
            return (value.times, value.values)
        return value
    return {key: norm(value)
            for key, value in dataclasses.asdict(metrics).items()}


def test_run_once_reproducible_under_faults():
    spec = parse_fault("loss=0.05,dup_down=0.2,jitter=0.0004")
    runs = []
    for _ in range(2):
        rng = RandomStreams(11)
        workload = _FACTORY(mbps(30), rng)
        runs.append(run_once(flow_buffer_256(), workload, seed=11,
                             faults=spec))
    assert _snapshot_dict(runs[0]) == _snapshot_dict(runs[1])


def test_serial_vs_parallel_identical_with_faults():
    spec = loss_fault(0.02)
    kwargs = dict(rates_mbps=(20.0, 40.0), repetitions=2, base_seed=5)
    serial = sweep(flow_buffer_256(), _FACTORY, faults=spec, **kwargs)
    parallel = sweep(flow_buffer_256(), _FACTORY, workers=2, faults=spec,
                     **kwargs)
    assert [dataclasses.asdict(r) for r in serial.rows] \
        == [dataclasses.asdict(r) for r in parallel.rows]


def test_none_and_null_spec_run_identically():
    runs = []
    for faults in (None, NO_FAULTS):
        rng = RandomStreams(3)
        workload = _FACTORY(mbps(20), rng)
        runs.append(run_once(buffer_256(), workload, seed=3, faults=faults))
    assert _snapshot_dict(runs[0]) == _snapshot_dict(runs[1])


# ---------------------------------------------------------------------------
# Injection behavior
# ---------------------------------------------------------------------------

def test_loss_triggers_retries_with_full_completion():
    """The headline resilience claim: at 1% control-channel loss the
    flow-granularity mechanism re-requests lost packet_ins and still
    completes >= 99% of flow setups."""
    spec = loss_fault(0.01)
    total = completed = retries = 0
    for seed in (42, 43, 44):
        rng = RandomStreams(seed)
        workload = workload_a_factory(n_flows=150)(mbps(30), rng)
        metrics = run_once(flow_buffer_256(), workload, seed=seed,
                           faults=spec)
        total += metrics.total_flows
        completed += metrics.completed_flows
        retries += metrics.packet_in_retry_count
    assert retries > 0
    assert completed / total >= 0.99


def test_fault_events_and_registry_counters():
    testbed = build_testbed(buffer_256(), _workload(n_flows=20, rate=40),
                            seed=8)
    install_faults(testbed, loss_fault(0.5))
    events = []
    testbed.switches[0].events.on(
        "fault_injected",
        lambda t, kind, direction, message: events.append((kind, direction)))
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=1.0)
    dropped = sum(1 for kind, _ in events if kind == "dropped")
    assert dropped > 0
    counted = sum(
        testbed.registry.counter("faults_dropped_total", switch="ovs",
                                 direction=direction).value
        for direction in ("up", "down"))
    assert counted == dropped
    testbed.shutdown()


def test_null_spec_installs_nothing():
    testbed = build_testbed(buffer_256(), _workload(n_flows=2), seed=8)
    install_faults(testbed, None)
    install_faults(testbed, NO_FAULTS)
    channel = testbed.switches[0].agent.channel
    assert channel._fault_to_controller is None
    assert channel._fault_to_switch is None
    testbed.shutdown()


def test_duplicated_packet_out_yields_buffer_unknown_error():
    """dup_down duplicates every controller→switch message; the second
    copy of each packet_out names an already-released unit and must
    surface as a BUFFER_UNKNOWN ErrorMsg, not a crash."""
    testbed = build_testbed(buffer_256(), _workload(n_flows=2), seed=12)
    agent = testbed.switches[0].agent
    received = []
    agent.channel.bind_controller(received.append)
    install_faults(testbed, FaultSpec(dup_down=1.0))
    testbed.pktgens[0].start(at=0.01)
    testbed.sim.run(until=0.5)
    packet_ins = [m for m in received if isinstance(m, PacketIn)]
    assert len(packet_ins) == 2
    for message in packet_ins:
        agent.channel.send_to_switch(
            PacketOut(actions=(OutputAction(2),),
                      buffer_id=message.buffer_id, in_port=1))
    testbed.sim.run(until=1.0)
    # Each packet_out arrived twice; the copy hit a freed unit.
    assert testbed.hosts[-1].packets_received == 2
    errors = [m for m in received if isinstance(m, ErrorMsg)]
    assert len(errors) == 2
    assert all(e.error_type is ErrorType.BUFFER_UNKNOWN for e in errors)
    assert agent.errors_sent.value == 2
    testbed.shutdown()


def test_stall_window_forces_disconnect_then_keepalive_reconnect():
    """A controller stall long enough to starve the keepalive probe
    flips the switch to disconnected; once the window ends the next
    probe's EchoReply restores the connection."""
    calibration = TestbedCalibration(
        switch=SwitchConfig(connection_probe_interval=0.2,
                            connection_timeout=0.5, buffer_ageout=0.0),
        controller=ControllerConfig())
    testbed = build_testbed(buffer_256(), _workload(n_flows=1), seed=13,
                            calibration=calibration)
    install_faults(testbed, FaultSpec(stall_windows=((1.0, 2.5),)))
    switch = testbed.switches[0]
    disconnects, reconnects = [], []
    switch.events.on("controller_disconnected",
                     lambda t: disconnects.append(t))
    switch.events.on("controller_reconnected",
                     lambda t: reconnects.append(t))
    testbed.controller.start_handshake()
    testbed.sim.run(until=4.0)
    assert len(disconnects) == 1
    assert 1.2 <= disconnects[0] <= 2.0       # timeout into the stall
    assert len(reconnects) == 1
    assert 2.5 <= reconnects[0] <= 3.0        # first probe after the window
    assert switch.agent.connected
    testbed.shutdown()


def test_forced_ageout_expires_units_and_late_timer_is_clean():
    """FaultSpec.ageout forces expiry before the (long) retry timer
    fires; the timer then finds its unit gone and must clean up without
    abandoning or crashing (the timer-after-ageout race)."""
    config = BufferConfig(mechanism="flow-granularity", capacity=64,
                          retry_timeout=1.0, max_retries=2)
    testbed = build_testbed(config, _workload(n_flows=3), seed=14)
    switch = testbed.switches[0]
    switch.agent.channel.bind_controller(lambda message: None)   # mute
    install_faults(testbed, FaultSpec(ageout=0.05, ageout_interval=0.02))
    aged = []
    switch.events.on("buffer_aged_out", lambda t, bid: aged.append(bid))
    testbed.pktgens[0].start(at=0.01)
    testbed.sim.run(until=2.0)     # past the 1.0 s retry timers
    mechanism = switch.mechanism
    assert len(aged) == 3                      # every unit force-expired
    assert mechanism.units_in_use == 0
    assert mechanism.flows_abandoned == 0      # ageout, not retry give-up
    assert mechanism._pending == {}            # late timers cleaned up
    assert mechanism.buffer.released.value == 0
    assert mechanism.buffer.expired.value == 3
    testbed.shutdown()


def test_forced_rearm_from_ageout_listener_keeps_one_sweep_chain():
    """Bugfix regression: force_buffer_ageout() invoked from inside a
    buffer_aged_out listener must not leave two live sweep chains.  The
    old sweep re-armed unconditionally after emitting, overwriting the
    handle the forced re-arm had just installed — both chains stayed
    live (double expiry) and shutdown() could cancel only one."""
    config = BufferConfig(mechanism="flow-granularity", capacity=64,
                          retry_timeout=10.0, max_retries=1)
    testbed = build_testbed(config, _workload(n_flows=1), seed=16)
    agent = testbed.switches[0].agent
    agent.channel.bind_controller(lambda message: None)   # mute
    sweeps = []
    inner = agent._ageout_sweep

    def counting_sweep():
        sweeps.append(testbed.sim.now)
        inner()

    agent._ageout_sweep = counting_sweep
    forced = []

    def rearm_under_pressure(time, buffer_id):
        if not forced:
            forced.append(time)
            agent.force_buffer_ageout(0.05, interval=0.025)

    testbed.switches[0].events.on("buffer_aged_out", rearm_under_pressure)
    testbed.pktgens[0].start(at=0.01)
    agent.force_buffer_ageout(0.04, interval=0.02)
    testbed.sim.run(until=1.0)
    assert forced, "the ageout listener never fired"
    # Exactly one live chain: after the forced re-arm the sweep cadence
    # is one call per 25ms — two interleaved chains would double it
    # (coincident timestamps, zero deltas).
    after = [time for time in sweeps if time > forced[0]]
    deltas = [b - a for a, b in zip(after, after[1:])]
    assert deltas and all(d == pytest.approx(0.025) for d in deltas), deltas
    testbed.shutdown()


def test_retry_exhaustion_counts_drops_not_releases():
    """Bugfix regression: abandoning a flow after max_retries must count
    its packets as abandoned drops, never as releases."""
    config = BufferConfig(mechanism="flow-granularity", capacity=64,
                          retry_timeout=0.02, max_retries=2)
    testbed = build_testbed(config, _workload(n_flows=3), seed=15)
    switch = testbed.switches[0]
    switch.agent.channel.bind_controller(lambda message: None)   # mute
    testbed.pktgens[0].start(at=0.01)
    testbed.sim.run(until=1.0)
    mechanism = switch.mechanism
    assert mechanism.flows_abandoned == 3
    assert mechanism.buffer.released.value == 0      # the bug inflated this
    assert mechanism.buffer.abandoned.value == 3
    assert mechanism.units_in_use == 0
    testbed.shutdown()
