"""Tests for the discrete-event simulator core."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simkit import (PRIORITY_LATE, PRIORITY_URGENT, SchedulingError,
                          Simulator)


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


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


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


def _drive(roots, script, runs, profiler):
    """Replay one random schedule; snapshot the kernel after each run."""
    sim = Simulator()
    if profiler is not None:
        sim.attach_profiler(profiler)
    order, handles, steps = [], [], iter(script)

    def spawn(step):
        delay, priority = step[0], step[1]
        handles.append(sim.schedule(delay, fire, len(handles),
                                    priority=priority))

    def fire(ident):
        order.append((ident, sim.now))
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
    plain = _drive(roots, script, runs, None)
    # The clock never runs back, within a run or from one run to the next.
    last_now, seen = 0.0, 0
    for order, now, _executed, _pending in plain:
        times = [last_now] + [at for _ident, at in order[seen:]] + [now]
        assert times == sorted(times)
        last_now, seen = now, len(order)
    for stride in (1, 2, 3, 16):
        profiler = _IndexProfiler(stride)
        assert _drive(roots, script, runs, profiler) == plain
        for indices, executed in profiler.runs:
            assert indices == list(range(stride, executed + 1, stride))
