"""Tests for series, captures, samplers and the delay tracker."""

from __future__ import annotations

import statistics

import pytest
from hypothesis import given, strategies as st

from repro.metrics import (DelayTracker, GaugeSampler, LinkCapture, Summary,
                           TimeSeries, UtilizationSampler, percentile,
                           summarize)
from repro.netsim import Link
from repro.openflow import FlowMod, PacketIn, PacketOut
from repro.packets import udp_packet
from repro.simkit import EventEmitter, ServiceStation, mbps
from repro.trafficgen import FlowSpec


def _packet(flow=0, seq=0):
    return udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                      f"10.0.0.{flow + 1}", "10.0.0.2", 1000 + flow, 2000,
                      flow_id=flow, seq_in_flow=seq)


# ---------------------------------------------------------------------------
# Summary / percentile
# ---------------------------------------------------------------------------

def test_summarize_basic():
    summary = summarize([1.0, 2.0, 3.0, 4.0])
    assert summary.count == 4
    assert summary.mean == pytest.approx(2.5)
    assert summary.minimum == 1.0 and summary.maximum == 4.0


def test_summarize_empty_is_zeroes():
    assert summarize([]) == Summary.empty()


def test_summarize_adds_left_to_right_on_every_python():
    # Python 3.12's builtin sum() rounds this to exactly 1.0; rows must
    # not depend on the interpreter version.
    assert summarize([0.1] * 10).mean == 0.09999999999999999


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
def test_summarize_matches_statistics_module(values):
    summary = summarize(values)
    assert summary.mean == pytest.approx(statistics.fmean(values))
    assert summary.std == pytest.approx(statistics.pstdev(values), abs=1e-6)


def test_percentile_interpolates():
    data = [10.0, 20.0, 30.0, 40.0]
    assert percentile(data, 0) == 10.0
    assert percentile(data, 100) == 40.0
    assert percentile(data, 50) == pytest.approx(25.0)


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# ---------------------------------------------------------------------------
# TimeSeries
# ---------------------------------------------------------------------------

def test_timeseries_append_and_window():
    series = TimeSeries("t")
    for i in range(5):
        series.add(float(i), float(i * 10))
    window = series.window(1.0, 4.0)
    assert window.values == (10.0, 20.0, 30.0)
    assert series.mean() == pytest.approx(20.0)
    assert series.max() == 40.0
    assert series.last() == 40.0


def test_timeseries_rejects_non_monotonic_times():
    series = TimeSeries()
    series.add(1.0, 0.0)
    with pytest.raises(ValueError):
        series.add(0.5, 0.0)


def test_timeseries_empty_stats():
    series = TimeSeries()
    assert series.mean() == 0.0
    assert series.max() == 0.0
    assert series.last() is None


# ---------------------------------------------------------------------------
# LinkCapture
# ---------------------------------------------------------------------------

def test_capture_classifies_openflow_kinds(sim):
    link = Link(sim, "l", mbps(100))
    link.connect(lambda item: None)
    capture = LinkCapture(link)
    link.send(PacketIn(packet=_packet(), buffer_id=1, data_len=128), 200)
    link.send(FlowMod(), 130)
    link.send(_packet(), 1000)
    assert capture.count("packetin") == 1
    assert capture.count("flowmod") == 1
    assert capture.count("data") == 1
    assert capture.bytes() == 1330
    assert capture.bytes("flowmod") == 130
    sim.run()


def test_capture_windowed_accounting(sim):
    link = Link(sim, "l", mbps(100))
    link.connect(lambda item: None)
    capture = LinkCapture(link)
    sim.schedule(1.0, link.send, "a", 100)
    sim.schedule(2.0, link.send, "b", 200)
    sim.schedule(3.0, link.send, "c", 400)
    sim.run()
    assert capture.bytes_within(1.5, 3.5) == 600
    assert capture.count_within(0.0, 1.5) == 1
    assert capture.first_time() == 1.0
    assert capture.last_time() == 3.0
    assert capture.active_window() == pytest.approx(2.0)


def test_capture_load_computation(sim):
    link = Link(sim, "l", mbps(100))
    link.connect(lambda item: None)
    capture = LinkCapture(link)
    link.send("x", 125_000)           # 1 Mbit
    assert capture.load_mbps(window=1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        capture.load_bps(0)
    sim.run()


def test_capture_clear(sim):
    link = Link(sim, "l", mbps(100))
    link.connect(lambda item: None)
    capture = LinkCapture(link)
    link.send("x", 100)
    capture.clear()
    assert capture.bytes() == 0
    assert capture.count() == 0
    sim.run()


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

def test_gauge_sampler_polls_on_interval(sim):
    values = iter(range(100))
    sampler = GaugeSampler(sim, lambda now: next(values), interval=0.1)
    sim.run(until=0.35)
    assert sampler.series.values == (0.0, 1.0, 2.0)
    sampler.stop()
    sim.run(until=1.0)
    assert len(sampler.series) == 3


def test_utilization_sampler_windows(sim):
    station = ServiceStation(sim, "s", servers=1)
    sampler = UtilizationSampler(sim, station, interval=1.0)
    station.submit(None, 0.5)          # busy 0.5s in first window
    sim.run(until=2.0)
    assert sampler.series.values[0] == pytest.approx(50.0)
    assert sampler.series.values[1] == pytest.approx(0.0)


def test_utilization_sampler_sums_stations(sim):
    stations = [ServiceStation(sim, f"s{i}", servers=1) for i in range(2)]
    for station in stations:
        station.submit(None, 0.5)
    sampler = UtilizationSampler(sim, stations, interval=1.0,
                                 baseline_percent=10.0)
    sim.run(until=1.5)
    # Each station was busy 0.5s in the 1s window: 50% + 50% + baseline.
    assert sampler.series.values[0] == pytest.approx(110.0)


def test_sampler_validation(sim):
    with pytest.raises(ValueError):
        GaugeSampler(sim, lambda now: 0, interval=0)
    with pytest.raises(ValueError):
        UtilizationSampler(sim, [], interval=1.0)


# ---------------------------------------------------------------------------
# DelayTracker
# ---------------------------------------------------------------------------

def _tracker_with_emitter(n_packets=2):
    flows = {0: FlowSpec(flow_id=0, five_tuple=_packet(0).five_tuple,
                         n_packets=n_packets)}
    tracker = DelayTracker(flows)
    emitter = EventEmitter()
    tracker.attach(emitter)
    return tracker, emitter


def test_delay_tracker_setup_delay():
    tracker, emitter = _tracker_with_emitter(n_packets=1)
    packet = _packet(0, 0)
    emitter.emit("packet_ingress", 1.0, packet, 1)
    emitter.emit("packet_egress", 1.5, packet, 2)
    record = tracker.records[0]
    assert record.setup_delay == pytest.approx(0.5)
    assert record.completed
    assert tracker.completed_flows == 1


def test_delay_tracker_controller_delay_uses_first_reply():
    tracker, emitter = _tracker_with_emitter(n_packets=1)
    packet = _packet(0, 0)
    message = PacketIn(packet=packet, buffer_id=1, data_len=128)
    emitter.emit("packet_ingress", 1.0, packet, 1)
    emitter.emit("packet_in_sent", 1.1, message)
    flow_mod = FlowMod(in_reply_to=message.xid)
    packet_out = PacketOut(buffer_id=1, in_reply_to=message.xid)
    emitter.emit("reply_arrived", 1.4, flow_mod)
    emitter.emit("reply_arrived", 1.6, packet_out)
    record = tracker.records[0]
    assert record.controller_delay == pytest.approx(0.3)
    assert len(tracker.all_rtts) == 1   # second reply of the pair ignored


def test_delay_tracker_switch_delay_is_difference():
    tracker, emitter = _tracker_with_emitter(n_packets=1)
    packet = _packet(0, 0)
    message = PacketIn(packet=packet, buffer_id=1, data_len=128)
    emitter.emit("packet_ingress", 1.0, packet, 1)
    emitter.emit("packet_in_sent", 1.1, message)
    emitter.emit("reply_arrived", 1.4,
                 FlowMod(in_reply_to=message.xid))
    emitter.emit("packet_egress", 1.8, packet, 2)
    record = tracker.records[0]
    assert record.setup_delay == pytest.approx(0.8)
    assert record.switch_delay == pytest.approx(0.5)


def test_delay_tracker_forwarding_delay_needs_all_packets():
    tracker, emitter = _tracker_with_emitter(n_packets=2)
    first, second = _packet(0, 0), _packet(0, 1)
    emitter.emit("packet_ingress", 1.0, first, 1)
    emitter.emit("packet_ingress", 1.2, second, 1)
    emitter.emit("packet_egress", 1.5, first, 2)
    assert tracker.records[0].forwarding_delay is None
    emitter.emit("packet_egress", 2.5, second, 2)
    assert tracker.records[0].forwarding_delay == pytest.approx(1.5)


def test_delay_tracker_counts_packet_ins_per_flow():
    tracker, emitter = _tracker_with_emitter(n_packets=3)
    for seq in range(3):
        packet = _packet(0, seq)
        emitter.emit("packet_in_sent", float(seq),
                     PacketIn(packet=packet, buffer_id=seq + 1,
                              data_len=128))
    assert tracker.packet_ins_per_flow() == [3]


def test_delay_tracker_ignores_untracked_packets():
    tracker, emitter = _tracker_with_emitter()
    alien = _packet(flow=77)
    emitter.emit("packet_ingress", 1.0, alien, 1)
    emitter.emit("reply_arrived", 1.0, FlowMod(in_reply_to=9999))
    assert tracker.records[0].first_ingress is None
