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


class ServiceStation:
    """``servers`` identical FIFO servers with busy-time accounting.

    A job is the arguments of its completion call: a started job is one
    scheduled ``_finish(payload, service_time, on_done)``, and a waiting
    job is that ``(payload, service_time, on_done)`` tuple in the queue.
    """

    def __init__(self, sim: Simulator, name: str, servers: int = 1):
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        self.sim = sim
        self.name = name
        self.servers = servers
        self._queue: Deque[tuple] = deque()
        self._busy = 0
        # Hot-path preresolution: submit/_finish run once per job on
        # every contended device, so skip the method lookups.
        self._schedule = sim.schedule
        self._finish_cb = self._finish
        #: Wall-clock profiler attribution label (repro.obs.profile):
        #: stations are generic, so the instance name tells them apart.
        self.profile_component = f"station:{name}"
        #: Total server-seconds spent serving jobs since creation.
        self.busy_time = 0.0
        self._accounting_start = sim.now

    # ------------------------------------------------------------------
    # Submission / dispatch
    # ------------------------------------------------------------------
    def submit(self, payload: Any, service_time: float,
               on_done: Optional[CompletionCallback] = None) -> None:
        """Queue ``payload`` for ``service_time`` seconds of work."""
        if service_time < 0:
            raise ValueError(f"service_time must be >= 0, got {service_time}")
        if self._busy < self.servers:
            self._busy += 1
            self._schedule(service_time, self._finish_cb, payload,
                           service_time, on_done)
        else:
            self._queue.append((payload, service_time, on_done))

    def _finish(self, payload: Any, service_time: float,
                on_done: Optional[CompletionCallback]) -> None:
        self.busy_time += service_time
        if self._queue:
            # The freed server takes the next job before ``on_done``
            # runs, so work ``on_done`` submits queues behind it.
            job = self._queue.popleft()
            self._schedule(job[1], self._finish_cb, *job)
        else:
            self._busy -= 1
        if on_done is not None:
            on_done(payload)

    def unwire(self) -> None:
        """Drop the callbacks this station holds (end of run).

        ``_finish_cb`` is the station's own bound method, and each
        waiting job's ``on_done`` belongs to the component that
        submitted it: both lead back here.  The waiting jobs go with
        the queue; busy time stays readable.
        """
        self._finish_cb = None
        self._queue.clear()

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ServiceStation({self.name!r}, servers={self.servers}, "
                f"busy={self._busy}, queued={len(self._queue)})")
