"""Tests for the MetricsSuite probes, snapshot folds and report formatting."""

from __future__ import annotations

import hashlib

import pytest

from repro.bufferpool import parse_pool
from repro.core import buffer_16, buffer_256, flow_buffer_256, no_buffer
from repro.experiments import (build_testbed, format_experiment,
                               run_benefits_experiment, run_once)
from repro.faults import parse_fault
from repro.metrics import TimeSeries
from repro.metrics.collector import _mean, _merge_series
from repro.metrics.series import ordered_sum
from repro.scenarios import build_scenario, parse_scenario
from repro.shard import metrics_fingerprint
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import batched_multi_packet_flows, single_packet_flows


def _run_testbed(n_flows=10, rate=40, seed=80):
    workload = single_packet_flows(mbps(rate), n_flows=n_flows,
                                   rng=RandomStreams(seed))
    testbed = build_testbed(buffer_256(), workload, seed=seed)
    testbed.controller.start_handshake()
    testbed.pktgen.start(at=0.02)
    testbed.sim.run(until=1.0)
    return testbed, workload


def test_snapshot_rejects_empty_window():
    testbed, _ = _run_testbed()
    with pytest.raises(ValueError):
        testbed.metrics.snapshot(0.5, 0.5)
    testbed.shutdown()


def test_snapshot_load_window_excludes_late_traffic():
    testbed, workload = _run_testbed()
    send_end = 0.02 + workload.duration
    full = testbed.metrics.snapshot(0.02, 1.0, load_end=1.0)
    tight = testbed.metrics.snapshot(0.02, 1.0, load_end=send_end + 0.05)
    # The tight window normalizes over the send period: a higher rate.
    assert tight.control_load_up_mbps > full.control_load_up_mbps
    # But the same message counts (counts are not windowed).
    assert tight.packet_in_count == full.packet_in_count
    testbed.shutdown()


def test_snapshot_usage_is_windowed_mean():
    testbed, workload = _run_testbed()
    active = testbed.metrics.snapshot(0.02, 0.02 + workload.duration + 0.02)
    idle = testbed.metrics.snapshot(0.9, 1.0)
    # The active window shows real work; the idle tail only baseline.
    assert (active.switch_usage_percent
            > idle.switch_usage_percent)
    assert idle.switch_usage_percent == pytest.approx(
        testbed.switch.config.baseline_usage_percent, abs=1.0)
    testbed.shutdown()


def test_redundant_packet_in_ratio():
    testbed, _ = _run_testbed()
    snapshot = testbed.metrics.snapshot(0.02, 1.0)
    assert snapshot.redundant_packet_in_ratio == pytest.approx(1.0)
    testbed.shutdown()


def test_format_experiment_renders_all_benefit_figures():
    data = run_benefits_experiment(rates_mbps=(30,), repetitions=1,
                                   n_flows=15)
    text = format_experiment(data)
    for figure_id in ("fig2a", "fig2b", "fig3", "fig4", "fig5", "fig6",
                      "fig7", "fig8"):
        assert figure_id in text
    filtered = format_experiment(data, figure_ids=("fig3",))
    assert "fig3" in filtered and "fig2a" not in filtered


# ---------------------------------------------------------------------------
# One suite for every topology
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", ("single", "fanin:3", "line:3"))
def test_every_shape_has_one_probe_layout(shape):
    workload = single_packet_flows(mbps(40), n_flows=6,
                                   rng=RandomStreams(3))
    testbed = build_scenario(parse_scenario(shape), buffer_256(), workload,
                             seed=3)
    metrics = testbed.metrics
    assert metrics.switches == testbed.switches
    for probes in (metrics.captures_up, metrics.captures_down,
                   metrics.switch_samplers, metrics.buffer_samplers):
        assert len(probes) == len(testbed.switches)
    for capture, cable in zip(metrics.captures_up, testbed.control_cables):
        assert capture.link is cable.forward
    for capture, cable in zip(metrics.captures_down, testbed.control_cables):
        assert capture.link is cable.reverse
    testbed.shutdown()


def _series(samples):
    series = TimeSeries("w")
    for time, value in samples:
        series.add(time, value)
    return series


def test_merge_series_of_one_window_is_that_window():
    values = [0.1, 0.7, 1e16 / 3, 3.0000000000000004]
    window = _series([(0.01 * (i + 1), v) for i, v in enumerate(values)])
    for combine in (ordered_sum, _mean):
        merged = _merge_series([window], "merged", combine)
        assert merged.name == "merged"
        assert merged.times == window.times
        assert [v.hex() for v in merged.values] == [v.hex() for v in values]


def test_merge_series_folds_switches_left_to_right():
    per_switch = [(1e16, 1.0, 0.1), (1.0, 0.2, 1e16), (-1e16, 0.3, -1e16)]
    windows = [_series([(0.01, a), (0.02, b), (0.03, c)])
               for a, b, c in per_switch]
    merged = _merge_series(windows, "merged", ordered_sum)
    expected = [((0 + a) + b) + c for a, b, c in zip(*per_switch)]
    assert [v.hex() for v in merged.values] == [v.hex() for v in expected]
    assert merged.values[0] == 0.0      # 1.0 is lost against 1e16


def test_merge_series_truncates_to_the_shortest_window():
    windows = [_series([(0.01, 1.0), (0.02, 2.0), (0.03, 3.0)]),
               _series([(0.01, 10.0), (0.02, 20.0)]),
               _series([(0.01, 100.0), (0.02, 200.0), (0.03, 300.0),
                        (0.04, 400.0)])]
    merged = _merge_series(windows, "merged", ordered_sum)
    assert merged.times == (0.01, 0.02)
    assert merged.values == (111.0, 222.0)
    assert len(_merge_series([], "empty", ordered_sum)) == 0


#: (shape, mechanism, pool spec, fault spec) of the pinned runs below.
_PINNED_RUNS = {
    "single": ("single", buffer_16, None, "loss=0.02,jitter=0.0005"),
    "fanin:3": ("fanin:3", flow_buffer_256, "dt:alpha=2", None),
    "line:3": ("line:3", no_buffer, None, None),
}

#: sha256 of ``repr(metrics_fingerprint(row))``: every RunMetrics field,
#: floats exact, series and per-flow lists included.
_PINNED_DIGESTS = {
    "single":
        "79036247e1c27a8d6e0c4083641a743ed7a152deded2c3b5b9d7a0d81c340f42",
    "fanin:3":
        "377a1f5e5bde7a827f7cb7ffdcdd187dfa5cfb3a368911d784877d9651649367",
    "line:3":
        "636974ff63ac07691c0ec4c6f77ac3e85dc1686a59af6c7c84f39aaf7d9512e1",
}


# The lossy single run leaves 7 of 30 flows incomplete (and says so).
@pytest.mark.filterwarnings("ignore:run_once:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_run_metrics_fingerprint_is_pinned(name):
    shape, config, pool, faults = _PINNED_RUNS[name]
    spec = parse_scenario(shape)
    if pool is not None:
        spec = spec.with_pool(parse_pool(pool))
    workload = batched_multi_packet_flows(mbps(90), n_flows=30,
                                          packets_per_flow=8,
                                          rng=RandomStreams(11))
    metrics = run_once(config(), workload, seed=11, scenario=spec,
                       faults=parse_fault(faults) if faults else None)
    digest = hashlib.sha256(
        repr(metrics_fingerprint(metrics)).encode()).hexdigest()
    assert digest == _PINNED_DIGESTS[name]
