"""Discrete-event simulation core.

The :class:`Simulator` owns the virtual clock and the pending-event heap.
Every component is written in callback style: ``sim.schedule(delay, fn,
*args)`` runs ``fn`` at ``sim.now + delay`` and returns a cancellable
:class:`ScheduledCall`.  Waiting with a timeout is a scheduled call that
the awaited outcome cancels (the buffer re-request timer, the stats
poller's reply timeout); queueing is a
:class:`~repro.simkit.stations.ServiceStation`.

Determinism: events scheduled for the same instant fire in FIFO order of
scheduling (stable sequence numbers break ties), so a simulation with a
fixed RNG seed is exactly reproducible run-to-run.

Hot-path layout (DESIGN.md §13 documents the invariants):

* Heap entries are ``(time, priority, seq, call)`` tuples so every heap
  sift comparison stays in C — ``seq`` is unique, so the comparison
  never falls through to the :class:`ScheduledCall` payload.
* Same-instant work (``delay == 0`` / ``time == now``) never round-trips
  the heap: it lands on a per-priority FIFO micro-queue drained before
  the clock may advance.  Because every heap entry at time ``t`` was
  pushed while ``now < t``, its ``seq`` is smaller than any micro-queue
  entry's at that instant, and the dispatch comparison reproduces the
  exact ``(time, priority, seq)`` heap order bit-for-bit.
* :class:`ScheduledCall` handles are pooled on a bounded free list.  A
  handle is only recycled when the pop site holds the sole remaining
  reference (checked via ``sys.getrefcount``), so user-retained handles
  (periodic sweeps, pktgen trains, timeouts) are never reused while a
  stale ``cancel()`` could still reach them.
* :meth:`Simulator.run` is the only code that pops and executes events.
  Its one per-event bookkeeping test is ``executed != checkpoint``: the
  checkpoint is the next event an attached profiler times or the event
  that spends ``max_events``.
"""

from __future__ import annotations

import heapq
import math
import sys
import time
from collections import deque
from typing import Any, Callable, Iterable, Optional

from .errors import SchedulingError

#: Priority levels for same-instant ordering.  Lower fires first.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LATE = 2

#: Bound on pooled handles; beyond this, popped handles are simply dropped.
_FREE_LIST_MAX = 4096

_heappush = heapq.heappush
_heappop = heapq.heappop
_perf_counter = time.perf_counter
_isfinite = math.isfinite
_getrefcount = sys.getrefcount
_inf = math.inf


class ScheduledCall:
    """Handle for a scheduled callback; supports cancellation.

    Cancellation is *lazy*: the queue entry stays in place but is skipped
    when popped, which keeps :meth:`cancel` O(1).  Once the callback has
    run (or the cancelled entry is popped) the handle is marked consumed
    and may be recycled by its simulator's free list — but only if no
    caller still holds a reference to it.

    ``priority``/``seq`` are authoritative only for micro-queue entries;
    a recycled handle scheduled onto the heap keeps stale values because
    the heap tuple carries the ordering key (``time`` is always current).
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled",
                 "_sim")

    def __init__(self, time: float, priority: int, seq: int,
                 fn: Callable[..., Any], args: tuple,
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._dead += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return (f"ScheduledCall(t={self.time:.9f}, prio={self.priority}, "
                f"seq={self.seq}, fn={getattr(self.fn, '__name__', self.fn)}, "
                f"{state})")


class Simulator:
    """A discrete-event simulator with a float clock in seconds.

    One simulator serves one run.  Its queue holds callbacks into the
    run's components, which hold it in turn, so :meth:`clear` ends the
    run by dropping everything queued (see
    :meth:`repro.scenarios.Testbed.shutdown`).
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        #: Future events: a heap of ``(time, priority, seq, call)`` tuples.
        self._heap: list[tuple] = []
        #: Same-instant micro-queues, one FIFO per priority level.
        self._ready: tuple = (deque(), deque(), deque())
        self._seq = 0
        #: Cancelled entries still queued (cancellation is lazy).
        self._dead = 0
        #: Pooled ScheduledCall handles available for reuse.
        self._free: list[ScheduledCall] = []
        self._stopped = False
        #: Count of events executed; useful for tests and budget guards.
        self.events_executed = 0
        #: Wall-clock component profiler (``repro.obs.profile``), or
        #: ``None``.  Detached, it costs :meth:`run` nothing beyond the
        #: loop's one per-event checkpoint compare (see DESIGN.md §15).
        self._profiler = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 priority: int = PRIORITY_NORMAL) -> ScheduledCall:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SchedulingError(
                f"cannot schedule {delay!r}s in the past at t={self._now}")
        now = self._now
        time = now + delay
        seq = self._seq + 1
        self._seq = seq
        free = self._free
        if free:
            # Heap entries carry (time, priority, seq) in their tuple, so a
            # recycled handle bound for the heap skips those two stores;
            # only micro-queue entries are compared via their attributes.
            call = free.pop()
            call.time = time
            call.fn = fn
            call.args = args
            call.cancelled = False
        else:
            call = ScheduledCall(time, priority, seq, fn, args, self)
        # ``delay >= 0`` means ``time >= now`` for every finite delay, so
        # three float compares replace a math.isfinite() call: +inf fails
        # the != _inf arm, nan fails both orderings and falls through.
        if time > now:
            if time != _inf:
                _heappush(self._heap, (time, priority, seq, call))
                return call
        elif time == now:
            if 0 <= priority <= 2:
                # Same-instant dispatch: FIFO micro-queue, no heap trip.
                call.priority = priority
                call.seq = seq
                self._ready[priority].append(call)
            else:
                _heappush(self._heap, (time, priority, seq, call))
            return call
        self._seq = seq - 1
        call.fn = call.args = None
        free.append(call)
        raise SchedulingError(f"event time must be finite, got {time!r}")

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any,
                    priority: int = PRIORITY_NORMAL) -> ScheduledCall:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        now = self._now
        if time < now:
            raise SchedulingError(
                f"cannot schedule at t={time} before now={now}")
        if not _isfinite(time):
            raise SchedulingError(f"event time must be finite, got {time!r}")
        seq = self._seq + 1
        self._seq = seq
        free = self._free
        if free:
            call = free.pop()
            call.time = time
            call.priority = priority
            call.seq = seq
            call.fn = fn
            call.args = args
            call.cancelled = False
        else:
            call = ScheduledCall(time, priority, seq, fn, args, self)
        if time == now and 0 <= priority <= 2:
            self._ready[priority].append(call)
        else:
            _heappush(self._heap, (time, priority, seq, call))
        return call

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _recycle(self, call: ScheduledCall) -> None:
        """Retire a cancelled entry just popped off a queue.

        Its handle is pooled only if nothing else still references it.
        Must be called in expression form (``self._recycle(dq.popleft())``)
        so the only references are our parameter and ``getrefcount``'s
        argument (baseline 2).  Anything higher means some component
        retained the handle — a stale ``cancel()`` could still arrive —
        and it must not be reused.
        """
        self._dead -= 1
        call.fn = call.args = None
        if len(self._free) < _FREE_LIST_MAX and _getrefcount(call) == 2:
            self._free.append(call)

    def _pop_next(self, limit: float) -> Optional[ScheduledCall]:
        """Pop the next live entry in (time, priority, seq) order.

        Cancelled entries encountered on the way out free their pooled
        slot.  Returns ``None`` when nothing at or before ``limit``
        remains; an entry beyond ``limit`` is left queued.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            self._recycle(_heappop(heap)[3])
        best: Optional[ScheduledCall] = None
        best_dq = None
        for dq in self._ready:
            while dq and dq[0].cancelled:
                self._recycle(dq.popleft())
            if dq:
                head = dq[0]
                if best is None or (head.time, head.priority, head.seq) < (
                        best.time, best.priority, best.seq):
                    best = head
                    best_dq = dq
        if heap and (best is None
                     or heap[0] < (best.time, best.priority, best.seq)):
            if heap[0][0] > limit:
                return None
            return _heappop(heap)[3]
        if best is None or best.time > limit:
            return None
        best_dq.popleft()
        return best

    def peek(self) -> float:
        """Time of the next pending event, or ``inf`` if none remain."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            self._recycle(_heappop(heap)[3])
        time = heap[0][0] if heap else _inf
        for dq in self._ready:
            while dq and dq[0].cancelled:
                self._recycle(dq.popleft())
            if dq and dq[0].time < time:
                time = dq[0].time
        return time

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or stopped.

        ``until`` advances the clock to exactly that time even if the queue
        drains earlier, mirroring SimPy semantics; this makes utilization
        windows well defined.  A non-finite ``until`` raises
        ``ValueError`` before anything runs.  ``max_events`` is a runaway
        guard for tests: a run that spends it stops at its last executed
        event, and the clock stays there (``max_events=0`` runs nothing).
        Returns the simulation time when the run stopped.

        With a profiler attached (:meth:`attach_profiler`), every
        ``stride``-th event of the run is timed and attributed.  This is
        the only code that executes events, so profiled and plain runs
        cannot disagree on order.

        ``events_executed`` is flushed in bulk when the loop exits; every
        other piece of simulator state, ``pending_count()`` included, is
        exact at each callback.
        """
        if until is None:
            limit = _inf
        elif _isfinite(until):
            limit = until
        else:
            raise ValueError(f"until must be finite, got {until!r}")
        if max_events is not None and max_events <= 0:
            if max_events < 0:
                raise ValueError(
                    f"max_events must be >= 0, got {max_events}")
            return self._now
        profiler = self._profiler
        budget = max_events or 0
        stride = sample = 0 if profiler is None else profiler.stride
        # The loop's one per-event bookkeeping test is ``executed !=
        # checkpoint``.  The checkpoint is the next event the profiler
        # times or the event that spends the budget, whichever is first;
        # 0 (``executed`` counts from 1) when there is neither.
        checkpoint = (min(sample, budget) if sample and budget
                      else sample or budget)
        self._stopped = False
        executed = 0
        heap = self._heap
        ready_urgent, ready_normal, ready_late = self._ready
        free = self._free
        if profiler is not None:
            profiler.begin_run(self._now)
        try:
            while True:
                if ready_urgent or ready_normal or ready_late:
                    call = self._pop_next(limit)
                    if call is None:
                        break
                else:
                    if not heap or heap[0][0] > limit:
                        break
                    call = _heappop(heap)[3]
                    if call.cancelled:
                        # Inline _recycle (2 = this binding + getrefcount's
                        # argument).
                        self._dead -= 1
                        call.fn = call.args = None
                        if (len(free) < _FREE_LIST_MAX
                                and _getrefcount(call) == 2):
                            free.append(call)
                        continue
                self._now = call.time
                executed += 1
                call.cancelled = True       # consumed: stale cancel no-ops
                fn = call.fn
                args = call.args
                call.fn = call.args = None
                if len(free) < _FREE_LIST_MAX and _getrefcount(call) == 2:
                    free.append(call)
                call = None
                if executed != checkpoint:
                    if args:
                        fn(*args)
                    else:
                        fn()
                else:
                    if executed == sample:
                        t0 = _perf_counter()
                        fn(*args)
                        profiler.record(fn, _perf_counter() - t0, executed,
                                        self._now)
                        sample += stride
                    else:
                        fn(*args)
                    if executed == budget:
                        break
                    checkpoint = min(sample, budget) if budget else sample
                if self._stopped:
                    break
        finally:
            self.events_executed += executed
            if profiler is not None:
                profiler.end_run(self._now, executed)
        # ``executed == max_events`` only when the budget cut the run
        # short: earlier events may still be pending, so the clock stays.
        if (until is not None and self._now < until and not self._stopped
                and executed != max_events):
            self._now = until
        return self._now

    def attach_profiler(self, profiler) -> None:
        """Time every ``stride``-th event of subsequent :meth:`run` calls.

        ``profiler`` is duck-typed (``stride``/``record``/``begin_run``/
        ``end_run``) — in practice a
        :class:`repro.obs.profile.ComponentProfiler`.  Event ordering and
        results are bit-identical with or without one attached; only
        wall-clock behaviour differs.
        """
        if profiler is None:
            raise ValueError("profiler must not be None "
                             "(use detach_profiler())")
        self._profiler = profiler

    def detach_profiler(self):
        """Stop profiling :meth:`run`; returns the old profiler."""
        profiler, self._profiler = self._profiler, None
        return profiler

    @property
    def profiler(self):
        """The attached wall-clock profiler, or ``None``."""
        return self._profiler

    def stop(self) -> None:
        """Stop :meth:`run` after the currently executing event."""
        self._stopped = True

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (the sequence counter).

        Unlike ``events_executed`` — which is flushed in bulk when
        :meth:`run` exits — this is exact *inside* event callbacks, so
        live observers (``repro.obs.monitor`` heartbeats) use it as the
        mid-run progress counter.
        """
        return self._seq

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued.

        O(1) and exact inside event callbacks: the queue lengths minus the
        cancelled entries still in them (counted on first cancel,
        uncounted when popped), instead of a walk over the heap.
        """
        ready_urgent, ready_normal, ready_late = self._ready
        return (len(self._heap) + len(ready_urgent) + len(ready_normal)
                + len(ready_late) - self._dead)

    def drain(self, calls: Iterable[ScheduledCall]) -> None:
        """Cancel a batch of scheduled calls (e.g. on component shutdown)."""
        for call in calls:
            call.cancel()

    def clear(self) -> None:
        """Drop every queued call, the pooled handles and the profiler.

        The end of a run (:meth:`repro.scenarios.Testbed.shutdown`).
        Each queued handle loses its callback and arguments and reads
        cancelled, so a later ``cancel()`` is a no-op: components keep
        handles (a datapath's sweep, a sampler's tick), and a handle
        whose callback is its holder's bound method would otherwise
        keep that holder in a reference cycle.  Afterwards the
        simulator refers to nothing a component built;
        ``pending_count()`` reads 0, and the clock and
        ``events_executed`` stay as they were.
        """
        for entry in self._heap:
            call = entry[3]
            call.fn = call.args = None
            call.cancelled = True
        for queue in self._ready:
            for call in queue:
                call.fn = call.args = None
                call.cancelled = True
            queue.clear()
        self._heap.clear()
        self._free.clear()
        self._dead = 0
        self._profiler = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Simulator(now={self._now:.9f}, "
                f"pending={self.pending_count()})")
