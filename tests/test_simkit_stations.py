"""Tests for ServiceStation — the queueing workhorse.

The station used to wrap every job in a ``Job`` record and start queued
jobs through a ``_start`` hop; a job is now just the arguments of its
completion call.  ``ReferenceStation`` keeps the ``Job``-based
``submit``/``_start``/``_finish`` as they were, and Hypothesis drives
both stations through the same schedules: every completion must come
at the same time, in the same order, with the same busy time and
backlog visible to its callback, from the same number of kernel events.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ----------------------------------------------------------------------
# Lockstep against the Job-based station
# ----------------------------------------------------------------------
CompletionCallback = Callable[[Any], None]


class Job:
    """A unit of work submitted to a :class:`ReferenceStation`."""

    __slots__ = ("payload", "service_time", "on_done", "submitted_at",
                 "started_at", "finished_at")

    def __init__(self, payload: Any, service_time: float,
                 on_done: Optional[CompletionCallback], submitted_at: float):
        self.payload = payload
        self.service_time = service_time
        self.on_done = on_done
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None


class ReferenceStation:
    """The station as it was: one ``Job`` per submission."""

    def __init__(self, sim: Simulator, name: str, servers: int = 1):
        self.sim = sim
        self.name = name
        self.servers = servers
        self._queue: Deque[Job] = deque()
        self._busy = 0
        self._schedule = sim.schedule
        self._finish_cb = self._finish
        self.busy_time = 0.0
        self.jobs_completed = 0
        self.jobs_submitted = 0
        self.total_sojourn = 0.0
        self.max_queue_length = 0

    def submit(self, payload: Any, service_time: float,
               on_done: Optional[CompletionCallback] = None) -> Job:
        """Queue ``payload`` for ``service_time`` seconds of work."""
        if service_time < 0:
            raise ValueError(f"service_time must be >= 0, got {service_time}")
        job = Job(payload, service_time, on_done, self.sim._now)
        self.jobs_submitted += 1
        if self._busy < self.servers:
            self._busy += 1
            job.started_at = job.submitted_at
            self._schedule(service_time, self._finish_cb, job)
        else:
            queue = self._queue
            queue.append(job)
            if len(queue) > self.max_queue_length:
                self.max_queue_length = len(queue)
        return job

    def _start(self, job: Job) -> None:
        self._busy += 1
        job.started_at = self.sim._now
        self._schedule(job.service_time, self._finish_cb, job)

    def _finish(self, job: Job) -> None:
        now = self.sim._now
        job.finished_at = now
        self._busy -= 1
        self.busy_time += job.service_time
        self.jobs_completed += 1
        self.total_sojourn += now - job.submitted_at
        if self._queue:
            self._start(self._queue.popleft())
        if job.on_done is not None:
            job.on_done(job.payload)

    @property
    def backlog(self) -> int:
        return len(self._queue) + self._busy


#: Submission instants (repeats put several submissions at one instant)
#: and service times (0 included); dyadic, so sums are exact.
_AT = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5])
_SERVICE = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])
#: One drawn submission: when, how long, whether it has a callback, and
#: the service times of the jobs its callback submits in turn.
_SUBMISSION = st.tuples(_AT, _SERVICE, st.booleans(),
                        st.lists(_SERVICE, max_size=3))


def _drive(station_class, servers, submissions):
    """Run one schedule; returns what every completion callback saw."""
    sim = Simulator()
    station = station_class(sim, "s", servers=servers)
    seen = []

    def on_done(payload):
        seen.append((sim.now, payload, station.busy_time, station.backlog))
        if len(payload) == 1:
            for index, service in enumerate(submissions[payload[0]][3]):
                station.submit(payload + (index,), service, on_done)

    for index, (at, service, silent, _) in enumerate(submissions):
        sim.schedule_at(at, station.submit, (index,), service,
                        None if silent else on_done)
    sim.run()
    return seen, sim.events_scheduled, station.busy_time, station.backlog


@settings(max_examples=300, deadline=None)
@given(servers=st.integers(1, 4),
       submissions=st.lists(_SUBMISSION, min_size=1, max_size=12))
def test_station_in_lockstep_with_job_reference(servers, submissions):
    assert _drive(ServiceStation, servers, submissions) \
        == _drive(ReferenceStation, servers, submissions)


def test_unwire_drops_waiting_jobs(sim):
    station = ServiceStation(sim, "s", servers=1)
    done = []
    station.submit("a", 1.0, done.append)
    station.submit("b", 1.0, done.append)
    station.unwire()
    assert station.queue_length == 0
