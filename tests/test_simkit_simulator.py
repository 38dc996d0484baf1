"""Tests for the discrete-event simulator core."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkit import (PRIORITY_LATE, PRIORITY_NORMAL, PRIORITY_URGENT,
                          SchedulingError, Simulator)


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_starts_at_custom_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_schedule_runs_callback_at_correct_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(2.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.0]


def test_callbacks_receive_arguments():
    sim = Simulator()
    seen = []
    sim.schedule(0.1, seen.append, "payload")
    sim.run()
    assert seen == ["payload"]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_fifo_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(1.0, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_priority_breaks_ties():
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "late", priority=PRIORITY_LATE)
    sim.schedule(1.0, order.append, "normal")
    sim.schedule(1.0, order.append, "urgent", priority=PRIORITY_URGENT)
    sim.run()
    assert order == ["urgent", "normal", "late"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule(-0.1, lambda: None)


def test_scheduling_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.schedule_at(0.5, lambda: None)


def test_non_finite_time_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule_at(math.inf, lambda: None)
    with pytest.raises(SchedulingError):
        sim.schedule_at(math.nan, lambda: None)


def test_cancel_prevents_execution():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, seen.append, "x")
    handle.cancel()
    sim.run()
    assert seen == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_run_until_does_not_execute_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "early")
    sim.schedule(5.0, seen.append, "late")
    sim.run(until=2.0)
    assert seen == ["early"]
    assert sim.now == 2.0
    sim.run()
    assert seen == ["early", "late"]


def test_stop_halts_run():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, seen.append, 3)
    sim.run()
    assert seen == [1]
    assert sim.now == 2.0


def test_events_scheduled_during_execution_run():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: sim.schedule(1.0, seen.append, "nested"))
    sim.run()
    assert seen == ["nested"]
    assert sim.now == 2.0


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == math.inf
    sim.schedule(2.5, lambda: None)
    assert sim.peek() == 2.5


def test_peek_skips_cancelled_events():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.peek() == 2.0


def test_pending_count_ignores_cancelled():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_count() == 2
    handle.cancel()
    assert sim.pending_count() == 1


def test_pending_count_is_a_live_counter():
    """REGRESSION: pending_count is O(1) bookkeeping, not a heap scan —
    it must stay exact across ready-queue entries, double cancels, and
    post-execution stale cancels."""
    sim = Simulator()
    heap_handle = sim.schedule(1.0, lambda: None)
    sim.schedule(0.0, lambda: None)      # same-instant micro-queue entry
    assert sim.pending_count() == 2
    heap_handle.cancel()
    heap_handle.cancel()                 # idempotent: no double decrement
    assert sim.pending_count() == 1
    sim.run()
    assert sim.pending_count() == 0


def test_cancel_after_execution_does_not_corrupt_pending_count():
    sim = Simulator()
    handle = sim.schedule(0.5, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.pending_count() == 0
    handle.cancel()                      # stale: entry already executed
    assert sim.pending_count() == 0


def test_max_events_guard():
    sim = Simulator()
    def reschedule():
        sim.schedule(1.0, reschedule)
    sim.schedule(1.0, reschedule)
    sim.run(max_events=5)
    assert sim.events_executed == 5


def test_pending_count_is_exact_inside_callbacks():
    """REGRESSION: ``run`` used to lower the live counter only when it
    returned, so a callback asking ``pending_count()`` (the heartbeat's
    ``heap_depth``) counted every event already run as still queued."""
    sim = Simulator()
    queued = set()
    readings = []

    def schedule(delay, name):
        queued.add(name)
        return sim.schedule(delay, fire, name)

    def fire(name):
        queued.discard(name)
        readings.append((sim.pending_count(), len(queued)))
        kind, index = name
        if kind == "tick" and index < 50:
            schedule(0.001, ("tick", index + 1))
            schedule(0.0, ("probe", index))
            spare = schedule(0.0105, ("spare", index))
            if index % 3 == 0:
                spare.cancel()
                queued.discard(("spare", index))

    schedule(0.0, ("tick", 0))
    sim.run(until=1.0)
    assert len(readings) == 51 + 50 + 33    # ticks, probes, kept spares
    assert [got for got, _ in readings] == [want for _, want in readings]
    assert sim.pending_count() == 0


@pytest.mark.parametrize("until", [math.nan, math.inf, -math.inf])
def test_run_rejects_non_finite_until(until):
    """REGRESSION: ``until=nan`` ran every queued event (each comparison
    with NaN is false) and ``until=inf`` left the clock at infinity."""
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "x")
    with pytest.raises(ValueError):
        sim.run(until=until)
    assert seen == [] and sim.now == 0.0 and sim.pending_count() == 1
    sim.schedule(1.0, seen.append, "y")
    sim.run()
    assert seen == ["x", "y"] and sim.now == 1.0


def test_drain_cancels_batch():
    sim = Simulator()
    seen = []
    handles = [sim.schedule(1.0, seen.append, i) for i in range(3)]
    sim.drain(handles)
    sim.run()
    assert seen == []


class _IndexProfiler:
    """Profiler stub: ``runs`` holds (sampled indices, executed) per run."""

    def __init__(self, stride):
        self.stride = stride
        self.runs = []

    def begin_run(self, sim_now):
        self._indices = []

    def record(self, fn, elapsed, index, sim_now):
        self._indices.append(index)

    def end_run(self, sim_now, executed):
        self.runs.append((self._indices, executed))


@pytest.mark.parametrize("stride", [None, 1, 2])
def test_max_events_cut_leaves_clock_at_last_executed_event(stride):
    sim = Simulator()
    if stride is not None:
        sim.attach_profiler(_IndexProfiler(stride))
    seen = []
    for at in (1.0, 2.0, 3.0):
        sim.schedule_at(at, seen.append, at)
    assert sim.run(until=10.0, max_events=1) == 1.0
    assert sim.pending_count() == 2
    sim.schedule(0.5, seen.append, 1.5)
    sim.run()
    assert seen == [1.0, 1.5, 2.0, 3.0]
    assert sim.now == 3.0


@pytest.mark.parametrize("stride", [None, 1])
def test_max_events_zero_runs_nothing(stride):
    sim = Simulator()
    if stride is not None:
        sim.attach_profiler(_IndexProfiler(stride))
    seen = []
    sim.schedule(0.0, seen.append, "now")
    sim.schedule(1.0, seen.append, "later")
    assert sim.run(until=5.0, max_events=0) == 0.0
    assert sim.run(max_events=0) == 0.0
    assert seen == [] and sim.events_executed == 0
    assert sim.pending_count() == 2
    with pytest.raises(ValueError):
        sim.run(max_events=-1)
    sim.run(until=5.0)
    assert seen == ["now", "later"] and sim.now == 5.0


# Each script step: (delay, priority, children, cancel pick, stop).
_STEP = st.tuples(st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0)),
                  st.integers(0, 2), st.integers(0, 2),
                  st.one_of(st.none(), st.integers(0, 63)),
                  st.integers(0, 9).map(lambda roll: roll == 0))
_RUN = st.tuples(st.one_of(st.none(), st.sampled_from((0.0, 0.25, 1.0, 3.0))),
                 st.one_of(st.none(), st.integers(0, 6)))


class _ReferenceHandle:
    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ReferenceScheduler:
    """Ordering oracle: the documented scheduling rules over a plain list.

    Entries are ``(time, priority, seq, handle, fn, args)``.  The next
    event is the entry with the smallest ``(time, priority, seq)``, found
    by a linear scan; cancel is lazy (a cancelled entry is dropped when it
    comes up), and ``until``, ``max_events`` and ``stop()`` follow the
    rules in :meth:`Simulator.run`'s docstring.  No heap, micro-queue or
    pooling, so it shares no code path with the kernel it checks.
    """

    def __init__(self):
        self.now = 0.0
        self.events_executed = 0
        self._entries = []
        self._seq = 0
        self._stopped = False

    def schedule(self, delay, fn, *args, priority=PRIORITY_NORMAL):
        self._seq += 1
        handle = _ReferenceHandle()
        self._entries.append((self.now + delay, priority, self._seq, handle,
                              fn, args))
        return handle

    def stop(self):
        self._stopped = True

    def pending_count(self):
        return sum(not entry[3].cancelled for entry in self._entries)

    def run(self, until=None, max_events=None):
        if max_events == 0:
            return self.now
        self._stopped = False
        executed = 0
        while self._entries:
            entry = min(self._entries, key=lambda entry: entry[:3])
            if entry[3].cancelled:
                self._entries.remove(entry)
                continue
            if until is not None and entry[0] > until:
                break
            self._entries.remove(entry)
            entry[3].cancelled = True       # run: a later cancel() no-ops
            self.now = entry[0]
            executed += 1
            self.events_executed += 1
            entry[4](*entry[5])
            if self._stopped or executed == max_events:
                break
        if (until is not None and self.now < until and not self._stopped
                and executed != max_events):
            self.now = until
        return self.now


def _drive(sim, roots, script, runs):
    """Replay one random schedule on ``sim``; snapshot it after each run.

    Every callback also records the clock and ``pending_count()`` it saw.
    """
    order, handles, steps = [], [], iter(script)

    def spawn(step):
        delay, priority = step[0], step[1]
        handles.append(sim.schedule(delay, fire, len(handles),
                                    priority=priority))

    def fire(ident):
        order.append((ident, sim.now, sim.pending_count()))
        step = next(steps, None)
        if step is None:
            return
        for _ in range(step[2]):
            child = next(steps, None)
            if child is not None:
                spawn(child)
        if step[3] is not None:
            handles[step[3] % len(handles)].cancel()
        if step[4]:
            sim.stop()

    for step in roots:
        spawn(step)
    snapshots = []
    for offset, max_events in runs:
        until = None if offset is None else sim.now + offset
        sim.run(until=until, max_events=max_events)
        snapshots.append((list(order), sim.now, sim.events_executed,
                          sim.pending_count()))
    return snapshots


@settings(max_examples=150, deadline=None)
@given(roots=st.lists(_STEP, min_size=1, max_size=8),
       script=st.lists(_STEP, max_size=40),
       runs=st.lists(_RUN, min_size=1, max_size=6))
def test_plain_and_profiled_runs_agree_on_random_schedules(roots, script,
                                                           runs):
    """Plain and profiled runs (strides 1, 2, 3, 16) match the reference
    scheduler inside every callback and after every run."""
    reference = _drive(_ReferenceScheduler(), roots, script, runs)
    assert _drive(Simulator(), roots, script, runs) == reference
    # The clock never runs back, within a run or from one run to the next.
    last_now, seen = 0.0, 0
    for order, now, _executed, _pending in reference:
        times = [last_now] + [at for _ident, at, _ in order[seen:]] + [now]
        assert times == sorted(times)
        last_now, seen = now, len(order)
    for stride in (1, 2, 3, 16):
        sim = Simulator()
        profiler = _IndexProfiler(stride)
        sim.attach_profiler(profiler)
        assert _drive(sim, roots, script, runs) == reference
        for indices, executed in profiler.runs:
            assert indices == list(range(stride, executed + 1, stride))


# ---------------------------------------------------------------------------
# Reservations: a streamed source's calls keep the numbers drawn at start
# ---------------------------------------------------------------------------

_WHEN = st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0))
#: A plain call: (absolute via schedule_at?, delay from now, priority).
_PLAIN = st.tuples(st.booleans(), _WHEN,
                   st.sampled_from((PRIORITY_URGENT, PRIORITY_NORMAL,
                                    PRIORITY_NORMAL, PRIORITY_LATE)))


def _drive_reserved(sim, streamed, roots, reserver, gaps, script):
    """Run one schedule with a reservation made inside an event.

    ``reserver`` is the plain call whose event reserves ``len(gaps)``
    numbers, for calls at ``now + gaps[0]``, ``+ gaps[1]``, ...  Streamed,
    each reserved call queues the next one when it runs; otherwise all
    are queued with :meth:`Simulator.schedule_at` when the reservation
    is made (the order a reservation must reproduce).  Every event
    records its identity, the clock and ``events_scheduled``, then
    queues the next plain call of ``script``.
    """
    order, steps = [], iter(script)

    def queue(step, ident):
        absolute, delay, priority = step
        if absolute:
            sim.schedule_at(sim.now + delay, fire, ident, priority=priority)
        else:
            sim.schedule(delay, fire, ident, priority=priority)

    def fire(ident):
        order.append((ident, sim.now, sim.events_scheduled))
        step = next(steps, None)
        if step is not None:
            queue(step, ("plain", len(order)))

    def reserve():
        times, at = [], sim.now
        for gap in gaps:
            at += gap
            times.append(at)
        if streamed:
            slots = sim.reserve(len(times))

            def reserved(index):
                if index + 1 < len(times):
                    slots.schedule_at(times[index + 1], reserved, index + 1)
                fire(("reserved", index))

            slots.schedule_at(times[0], reserved, 0)
        else:
            for index, at in enumerate(times):
                sim.schedule_at(at, fire, ("reserved", index))
        fire("reserver")

    for index, step in enumerate(roots):
        queue(step, ("root", index))
    absolute, delay, priority = reserver
    if absolute:
        sim.schedule_at(delay, reserve, priority=priority)
    else:
        sim.schedule(delay, reserve, priority=priority)
    sim.run()
    return order, sim.events_scheduled, sim.pending_count()


@settings(max_examples=200, deadline=None)
@given(roots=st.lists(_PLAIN, max_size=6), reserver=_PLAIN,
       gaps=st.lists(_WHEN, min_size=1, max_size=10),
       script=st.lists(_PLAIN, max_size=40))
def test_reserved_calls_run_where_queueing_them_all_at_once_puts_them(
        roots, reserver, gaps, script):
    """Reserved calls, queued one at a time, interleave with plain
    ``schedule``/``schedule_at`` calls (ties, same-instant micro-queue
    entries, every priority) exactly as if all had been queued when the
    reservation was made, and every event sees the same
    ``events_scheduled``."""
    eager = _drive_reserved(Simulator(), False, roots, reserver, gaps,
                            script)
    streamed = _drive_reserved(Simulator(), True, roots, reserver, gaps,
                               script)
    assert streamed == eager
    assert [ident for ident, _at, _count in eager[0]
            if ident[0] == "reserved"] == [
                ("reserved", index) for index in range(len(gaps))]


def test_reservation_refuses_a_spent_count_the_past_and_non_finite_times():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    slots = sim.reserve(2)
    assert sim.events_scheduled == 3
    for bad in (0.5, -math.inf, math.inf, math.nan):
        with pytest.raises(SchedulingError):
            slots.schedule_at(bad, lambda: None)
    first = slots.schedule_at(1.0, lambda: None)
    second = slots.schedule_at(2.0, lambda: None)
    # A refused call spent no number.
    assert (first.seq, second.seq) == (2, 3)
    with pytest.raises(SchedulingError, match="spent"):
        slots.schedule_at(3.0, lambda: None)
    with pytest.raises(SchedulingError):
        sim.reserve(0).schedule_at(1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.reserve(-1)
    assert sim.events_scheduled == 3
    assert sim.pending_count() == 2
