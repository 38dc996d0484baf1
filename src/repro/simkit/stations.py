"""Queueing stations — the workhorse abstraction of the testbed model.

Every contended processor in the simulated testbed (switch CPU cores, the
controller CPU, the ASIC-to-CPU bus) is a :class:`ServiceStation`:
``servers`` identical servers in front of a FIFO queue.  A job carries its
own service time; when a server finishes a job it invokes the job's
completion callback and pulls the next queued job.  (Ethernet links are
FIFO single servers too, but a frame's finish time is known when it is
sent, so :class:`~repro.netsim.Link` keeps only the time its transmitter
frees up.)

The station keeps *busy-time* accounting, from which CPU utilization
percentages are derived exactly the way the paper reports them: busy core
seconds divided by wall seconds, times 100, summed over cores — so a
4-core device can legitimately read 274 % just like the paper's OVS box.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional

from .simulator import Simulator

#: Completion callback signature: receives the finished job's payload.
CompletionCallback = Callable[[Any], None]


class Job:
    """A unit of work submitted to a :class:`ServiceStation`."""

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

    @property
    def queueing_delay(self) -> float:
        """Time the job spent waiting before service began."""
        if self.started_at is None:
            raise ValueError("job has not started service")
        return self.started_at - self.submitted_at

    @property
    def sojourn_time(self) -> float:
        """Total time from submission to completion."""
        if self.finished_at is None:
            raise ValueError("job has not finished service")
        return self.finished_at - self.submitted_at


class ServiceStation:
    """``servers`` identical FIFO servers with busy-time accounting."""

    def __init__(self, sim: Simulator, name: str, servers: int = 1):
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        self.sim = sim
        self.name = name
        self.servers = servers
        self._queue: Deque[Job] = deque()
        self._busy = 0
        # Hot-path preresolution: submit/_start/_finish run once per job on
        # every contended device, so skip the method/property lookups.
        self._schedule = sim.schedule
        self._finish_cb = self._finish
        #: Wall-clock profiler attribution label (repro.obs.profile):
        #: stations are generic, so the instance name tells them apart.
        self.profile_component = f"station:{name}"
        #: Total server-seconds spent serving jobs since creation.
        self.busy_time = 0.0
        #: Jobs fully served since creation.
        self.jobs_completed = 0
        #: Jobs ever submitted since creation.
        self.jobs_submitted = 0
        #: Sum of sojourn times, for mean-latency reporting.
        self.total_sojourn = 0.0
        self._accounting_start = sim.now
        #: Peak queue length observed (diagnostics / tests).
        self.max_queue_length = 0

    # ------------------------------------------------------------------
    # Submission / dispatch
    # ------------------------------------------------------------------
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

    def unwire(self) -> None:
        """Drop the callbacks this station holds (end of run).

        ``_finish_cb`` is the station's own bound method, and each
        waiting job's ``on_done`` belongs to the component that
        submitted it: both lead back here.  Counters and the queue
        length stay readable.
        """
        self._finish_cb = None
        for job in self._queue:
            job.on_done = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Jobs waiting (excludes jobs in service)."""
        return len(self._queue)

    @property
    def in_service(self) -> int:
        """Jobs currently being served."""
        return self._busy

    @property
    def backlog(self) -> int:
        """Jobs waiting plus jobs in service."""
        return len(self._queue) + self._busy

    def utilization_percent(self) -> float:
        """Summed per-core utilization in percent since creation.

        With 4 servers all busy the station reads 400 %, matching how the
        paper reports multi-core CPU usage from ``top``.  Only completed
        jobs count: a job's whole service is booked when it finishes, so
        a job still in service adds nothing yet — the convention
        :class:`~repro.metrics.UtilizationSampler` relies on.
        """
        wall = self.sim.now - self._accounting_start
        if wall <= 0:
            return 0.0
        return 100.0 * self.busy_time / wall

    def mean_sojourn(self) -> float:
        """Average sojourn (wait + service) of completed jobs; 0 if none."""
        if self.jobs_completed == 0:
            return 0.0
        return self.total_sojourn / self.jobs_completed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ServiceStation({self.name!r}, servers={self.servers}, "
                f"busy={self._busy}, queued={len(self._queue)})")
