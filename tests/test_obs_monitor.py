"""Run health monitors: heartbeats, invariants, seeded-fault self-test."""

from __future__ import annotations

import dataclasses

from repro.core import buffer_16
from repro.experiments import run_once, sweep, workload_a_factory
from repro.experiments.runner import derive_seed
from repro.obs import (ConservationMonitor, HealthMonitor,
                       MM1EnvelopeMonitor, ObsCollector, ObsConfig,
                       RunObserver, build_monitors)
from repro.simkit import RandomStreams, mbps

_RATE = 20.0
_FLOWS = 20


def _observed_run(config, monkey=None, rate=_RATE, flows=_FLOWS):
    """One observed repetition; ``monkey(testbed)`` may corrupt state."""
    observer = RunObserver(config, label="buffer-16", rate_mbps=rate)
    if monkey is not None:
        original_attach = observer.attach

        def attach(testbed, calibration=None):
            original_attach(testbed, calibration=calibration)
            monkey(testbed)

        observer.attach = attach
    seed = derive_seed(1, rate, 0)
    workload = workload_a_factory(n_flows=flows)(mbps(rate),
                                                 RandomStreams(seed))
    run_once(buffer_16(), workload, seed=seed, obs=observer)
    return observer.observation


def test_heartbeats_carry_progress_and_verdicts():
    observation = _observed_run(ObsConfig(monitor=True))
    beats = observation.heartbeats
    assert len(beats) > 5
    times = [beat.time for beat in beats]
    assert times == sorted(times)
    assert beats[-1].events_scheduled > beats[0].events_scheduled
    for beat in beats:
        assert beat.verdicts.get("conservation") == "ok"
        assert "ovs" in beat.buffer_units
    assert observation.violations == []


def test_heartbeat_dict_is_jsonl_ready():
    observation = _observed_run(ObsConfig(monitor=True))
    doc = observation.heartbeats[0].to_dict()
    for key in ("time", "beat", "events_scheduled", "events_delta",
                "heap_depth", "buffer_units", "verdicts"):
        assert key in doc


def test_monitoring_does_not_perturb_results():
    plain = sweep(buffer_16(), workload_a_factory(n_flows=_FLOWS),
                  (_RATE,), 2, base_seed=1)
    obs = ObsCollector(ObsConfig(monitor=True, mm1_envelope=True))
    monitored = sweep(buffer_16(), workload_a_factory(n_flows=_FLOWS),
                      (_RATE,), 2, base_seed=1, obs=obs)
    assert len(plain.rows) == len(monitored.rows)
    for row_a, row_b in zip(plain.rows, monitored.rows):
        assert dataclasses.asdict(row_a) == dataclasses.asdict(row_b)
    assert obs.total_violations == 0


def test_seeded_corruption_fires_exactly_one_violation():
    """The self-test the monitors exist for: corrupt one buffer counter
    mid-run and the conservation monitor must report it — once, naming
    the offending partition — while every later beat still shows the
    persistent 'violated' verdict."""
    def corrupt(testbed):
        mechanism = testbed.switches[0].mechanism
        testbed.sim.schedule(0.100, mechanism.buffer.released.inc)

    observation = _observed_run(ObsConfig(monitor=True), monkey=corrupt,
                                flows=60)
    violations = observation.violations
    assert len(violations) == 1
    violation = violations[0]
    assert violation.monitor == "conservation"
    assert violation.subject == "ovs"
    assert violation.time >= 0.100
    assert "ovs" in violation.message
    late_verdicts = [beat.verdicts["conservation"]
                     for beat in observation.heartbeats
                     if beat.time > violation.time]
    assert late_verdicts and set(late_verdicts) == {"violated"}
    doc = violation.to_dict()
    assert doc["monitor"] == "conservation" and doc["subject"] == "ovs"


def test_one_worker_sweep_streams_heartbeats_live():
    """In-process sweeps hand every beat to the collector's sink as it
    fires, before its run's observation is collected — the live stream
    ``repro profile`` writes to its heartbeat JSONL."""
    streamed = []
    obs = ObsCollector(ObsConfig(monitor=True),
                       heartbeat_sink=lambda beat: streamed.append(
                           (len(obs.observations), beat)))
    sweep(buffer_16(), workload_a_factory(n_flows=_FLOWS), (_RATE,), 2,
          base_seed=1, obs=obs, workers=1)
    assert streamed and streamed[0][0] == 0
    for collected, beat in streamed:
        # rep N's beats arrive while reps 0..N-1 alone are collected.
        assert beat["record"] == "heartbeat"
        assert beat["run"].endswith(f"rep={collected}")
    assert len(streamed) == sum(len(o.heartbeats)
                                for o in obs.observations)


def test_parallel_monitor_summary_matches_serial():
    def run(workers):
        obs = ObsCollector(ObsConfig(monitor=True))
        sweep(buffer_16(), workload_a_factory(n_flows=_FLOWS),
              (_RATE,), 2, base_seed=1, obs=obs,
              workers=(workers if workers > 1 else None))
        return obs.monitor_summary()

    assert run(1) == run(2)


def test_build_monitors_selects_checks():
    assert [m.name for m in build_monitors()] == ["conservation"]
    names = [m.name for m in build_monitors(mm1=True, rate_mbps=_RATE)]
    assert names == ["conservation", "mm1_envelope"]


def test_mm1_envelope_needs_enough_completions():
    monitor = MM1EnvelopeMonitor(rate_mbps=_RATE)

    class FakeTracker:
        def setup_delays(self):
            return [0.001] * 10  # below MIN_COMPLETED: no verdict yet

    class FakeMetrics:
        delay_tracker = FakeTracker()

    class FakeTestbed:
        metrics = FakeMetrics()
        switches = ()

    assert monitor.check(FakeTestbed(), now=1.0) == []


def test_health_monitor_detach_cancels_pending_beat():
    from repro.simkit import Simulator

    class FakeTestbed:
        sim = Simulator()
        switches = ()
        pool = None
        metrics = None

    testbed = FakeTestbed()
    monitor = HealthMonitor(interval=0.010)
    monitor.attach(testbed)
    assert monitor.attached
    testbed.sim.run(until=0.035)
    beats_at_detach = len(monitor.heartbeats)
    assert beats_at_detach >= 3
    monitor.detach()
    assert not monitor.attached
    testbed.sim.run(until=0.100)
    assert len(monitor.heartbeats) == beats_at_detach


def test_heartbeat_heap_depth_is_the_live_queue():
    """REGRESSION: a beat reads ``pending_count()`` mid-run, which used
    to count every event already run in that ``run`` call, so
    ``heap_depth`` tracked ``events_scheduled`` instead of the queue."""
    from repro.simkit import Simulator

    class FakeTestbed:
        sim = Simulator()
        switches = ()
        pool = None
        metrics = None

    testbed = FakeTestbed()
    times = [0.0005 + 0.001 * k for k in range(100)]
    for at in times:
        testbed.sim.schedule_at(at, lambda: None)
    monitor = HealthMonitor(interval=0.010)
    monitor.attach(testbed)
    testbed.sim.run(until=0.2)
    beats = monitor.heartbeats
    assert len(beats) >= 10
    # The beat's own event has run and its successor is not yet queued.
    assert [beat.heap_depth for beat in beats] == [
        sum(at > beat.time for at in times) for beat in beats]


def test_conservation_monitor_name_is_stable():
    assert ConservationMonitor().name == "conservation"
