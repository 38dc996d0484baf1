"""Tests for RNG streams, the event emitter, and unit helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.simkit import (BITS_PER_BYTE, EventEmitter, RandomStreams, mbps,
                          msec, to_mbps, to_msec, transmission_delay, usec)


# ---------------------------------------------------------------------------
# RandomStreams
# ---------------------------------------------------------------------------

def test_same_seed_same_draws():
    a = RandomStreams(7).stream("x")
    b = RandomStreams(7).stream("x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_are_independent():
    streams = RandomStreams(7)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_stream_is_cached():
    streams = RandomStreams(0)
    assert streams.stream("x") is streams.stream("x")


def test_adding_stream_does_not_perturb_existing():
    first = RandomStreams(3)
    draw_before = first.stream("existing").random()
    second = RandomStreams(3)
    second.stream("newcomer").random()  # extra consumer
    draw_after = second.stream("existing").random()
    assert draw_before == draw_after


def test_spawn_produces_independent_child():
    parent = RandomStreams(1)
    child = parent.spawn("worker")
    assert parent.stream("x").random() != child.stream("x").random()


def test_gauss_clamped_never_below_minimum():
    streams = RandomStreams(0)
    values = [streams.gauss_clamped("g", mean=0.0, stddev=10.0)
              for _ in range(200)]
    assert all(v >= 0.0 for v in values)
    assert any(v > 0.0 for v in values)


def test_helper_draws_in_range():
    streams = RandomStreams(5)
    for _ in range(50):
        assert 2 <= streams.uniform("u", 2, 3) <= 3
        assert 1 <= streams.randint("i", 1, 6) <= 6
        assert streams.expovariate("e", 10.0) >= 0.0


# ---------------------------------------------------------------------------
# EventEmitter
# ---------------------------------------------------------------------------

def test_emitter_calls_listeners_in_order():
    emitter = EventEmitter()
    seen = []
    emitter.on("e", lambda x: seen.append(("first", x)))
    emitter.on("e", lambda x: seen.append(("second", x)))
    emitter.emit("e", 1)
    assert seen == [("first", 1), ("second", 1)]


def test_emitter_ignores_unknown_events():
    EventEmitter().emit("nobody-listens", 1, 2, 3)


def test_emitter_off_removes_listener():
    emitter = EventEmitter()
    seen = []
    listener = seen.append
    emitter.on("e", listener)
    emitter.off("e", listener)
    emitter.emit("e", 1)
    assert seen == []


def test_emitter_listener_count_and_clear():
    emitter = EventEmitter()
    emitter.on("e", lambda: None)
    assert emitter.listener_count("e") == 1
    emitter.clear()
    assert emitter.listener_count("e") == 0


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------

def test_rate_conversions_round_trip():
    assert to_mbps(mbps(42.5)) == pytest.approx(42.5)
    assert to_msec(msec(3.25)) == pytest.approx(3.25)


def test_transmission_delay_basic():
    # 1000 bytes at 100 Mbps = 80 microseconds.
    assert transmission_delay(1000, mbps(100)) == pytest.approx(usec(80))


def test_transmission_delay_validation():
    with pytest.raises(ValueError):
        transmission_delay(100, 0)
    with pytest.raises(ValueError):
        transmission_delay(-1, 100)


@given(st.integers(min_value=0, max_value=10**9),
       st.floats(min_value=1.0, max_value=1e12))
def test_transmission_delay_properties(size, rate):
    delay = transmission_delay(size, rate)
    assert delay >= 0
    assert delay == pytest.approx(size * BITS_PER_BYTE / rate)
