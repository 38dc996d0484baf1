"""Tests for ServiceStation — the queueing workhorse."""

from __future__ import annotations

import pytest

from repro.simkit import ServiceStation, Simulator


def test_single_server_serves_fifo(sim):
    station = ServiceStation(sim, "s", servers=1)
    done = []
    station.submit("a", 1.0, lambda p: done.append((p, sim.now)))
    station.submit("b", 1.0, lambda p: done.append((p, sim.now)))
    sim.run()
    assert done == [("a", 1.0), ("b", 2.0)]


def test_multi_server_parallelism(sim):
    station = ServiceStation(sim, "s", servers=2)
    done = []
    for name in ("a", "b", "c"):
        station.submit(name, 1.0, lambda p: done.append((p, sim.now)))
    sim.run()
    # a and b run in parallel; c waits for a free server.
    assert done == [("a", 1.0), ("b", 1.0), ("c", 2.0)]


def test_zero_service_time_allowed(sim):
    station = ServiceStation(sim, "s")
    done = []
    station.submit("instant", 0.0, done.append)
    sim.run()
    assert done == ["instant"]


def test_negative_service_time_rejected(sim):
    station = ServiceStation(sim, "s")
    with pytest.raises(ValueError):
        station.submit("x", -1.0)


def test_queue_and_busy_counters(sim):
    station = ServiceStation(sim, "s", servers=1)
    station.submit("a", 5.0)
    station.submit("b", 5.0)
    station.submit("c", 5.0)
    assert station.in_service == 1
    assert station.queue_length == 2
    assert station.backlog == 3
    sim.run()
    assert station.backlog == 0
    assert station.max_queue_length == 2


def test_busy_time_accounting(sim):
    station = ServiceStation(sim, "s", servers=2)
    station.submit("a", 2.0)
    station.submit("b", 3.0)
    sim.run(until=10.0)
    assert station.busy_time == pytest.approx(5.0)
    # 5 busy server-seconds over 10 wall seconds = 50%.
    assert station.utilization_percent() == pytest.approx(50.0)


def test_utilization_can_exceed_100_on_multicore(sim):
    station = ServiceStation(sim, "s", servers=4)
    for _ in range(4):
        station.submit(None, 10.0)
    sim.run(until=10.0)
    assert station.utilization_percent() == pytest.approx(400.0)


def test_utilization_counts_completed_jobs_only(sim):
    # A job in service adds nothing until it finishes; the CPU samplers
    # book each job to the window it finishes in.
    station = ServiceStation(sim, "s", servers=1)
    station.submit("a", 1.0)
    station.submit("b", 2.0)
    sim.run(until=0.5)
    assert station.utilization_percent() == 0.0
    sim.run(until=2.0)
    assert station.utilization_percent() == 50.0        # a: 1 s of 2 s
    sim.run(until=4.0)
    assert station.utilization_percent() == 75.0        # a + b: 3 s of 4 s


def test_job_timing_properties(sim):
    station = ServiceStation(sim, "s", servers=1)
    first = station.submit("a", 2.0)
    second = station.submit("b", 1.0)
    sim.run()
    assert first.queueing_delay == 0.0
    assert first.sojourn_time == 2.0
    assert second.queueing_delay == 2.0
    assert second.sojourn_time == 3.0


def test_mean_sojourn(sim):
    station = ServiceStation(sim, "s", servers=1)
    station.submit("a", 1.0)
    station.submit("b", 1.0)
    sim.run()
    assert station.mean_sojourn() == pytest.approx(1.5)


def test_mean_sojourn_empty_is_zero(sim):
    station = ServiceStation(sim, "s")
    assert station.mean_sojourn() == 0.0


def test_job_unstarted_timing_raises(sim):
    station = ServiceStation(sim, "s", servers=1)
    station.submit("a", 5.0)
    waiting = station.submit("b", 5.0)
    with pytest.raises(ValueError):
        _ = waiting.queueing_delay
    with pytest.raises(ValueError):
        _ = waiting.sojourn_time


def test_servers_validation(sim):
    with pytest.raises(ValueError):
        ServiceStation(sim, "s", servers=0)


def test_completion_callback_can_submit_more_work(sim):
    station = ServiceStation(sim, "s")
    done = []
    def chain(payload):
        done.append(payload)
        if payload < 3:
            station.submit(payload + 1, 1.0, chain)
    station.submit(1, 1.0, chain)
    sim.run()
    assert done == [1, 2, 3]
    assert sim.now == 3.0
