"""Tests for buffer configuration and the benefit-analysis helpers."""

from __future__ import annotations

import pytest

from repro.core import (BufferConfig, FlowGranularityBuffer, NoBuffer,
                        PacketGranularityBuffer, buffer_16, buffer_256,
                        build_headline_claims, create_mechanism,
                        crossover_rate, flow_buffer_256, no_buffer,
                        percent_increase, percent_reduction)
from repro.core.ops import NO_OPS, BufferOps


# ---------------------------------------------------------------------------
# BufferConfig / factory
# ---------------------------------------------------------------------------

def test_canonical_configs_have_paper_labels():
    assert no_buffer().label == "no-buffer"
    assert buffer_16().label == "buffer-16"
    assert buffer_256().label == "buffer-256"
    assert flow_buffer_256().label == "flow-buffer-256"


def test_uses_buffer_flag():
    assert not no_buffer().uses_buffer
    assert buffer_256().uses_buffer
    assert flow_buffer_256().uses_buffer


def test_unknown_mechanism_rejected():
    with pytest.raises(ValueError):
        BufferConfig(mechanism="quantum-buffer")


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        BufferConfig(capacity=-1)


def test_factory_builds_matching_types(sim):
    assert isinstance(create_mechanism(no_buffer(), sim), NoBuffer)
    packet_mech = create_mechanism(buffer_16(), sim)
    assert isinstance(packet_mech, PacketGranularityBuffer)
    assert packet_mech.capacity == 16
    flow_mech = create_mechanism(flow_buffer_256(), sim)
    assert isinstance(flow_mech, FlowGranularityBuffer)
    assert flow_mech.capacity == 256


def test_factory_forwards_parameters(sim):
    config = BufferConfig(mechanism="flow-granularity", capacity=32,
                          miss_send_len=64, retry_timeout=0.2,
                          max_retries=3, max_packets_per_flow=10)
    mechanism = create_mechanism(config, sim)
    assert mechanism.miss_send_len == 64
    assert mechanism.retry_timeout == 0.2
    assert mechanism.max_retries == 3
    assert mechanism.buffer.max_packets_per_flow == 10


def test_reclaim_delay_reaches_packet_buffer(sim):
    config = BufferConfig(mechanism="packet-granularity", capacity=8,
                          reclaim_delay=0.42)
    mechanism = create_mechanism(config, sim)
    assert mechanism.buffer.reclaim_delay == 0.42


# ---------------------------------------------------------------------------
# BufferOps
# ---------------------------------------------------------------------------

def test_ops_addition_and_total():
    a = BufferOps(map_lookups=1, stores=2)
    b = BufferOps(releases=3, timer_ops=1)
    combined = a + b
    assert combined.map_lookups == 1
    assert combined.stores == 2
    assert combined.releases == 3
    assert combined.total == 7
    assert NO_OPS.total == 0


# ---------------------------------------------------------------------------
# Analysis helpers
# ---------------------------------------------------------------------------

def test_percent_reduction_basic():
    assert percent_reduction([10, 10], [5, 5]) == pytest.approx(50.0)
    assert percent_reduction([10], [12]) == pytest.approx(-20.0)
    # Left-to-right on every Python (3.12's builtin sum() gives 10.0).
    assert percent_reduction([10.0] * 10, [9.0] * 10) == 9.999999999999998


def test_percent_increase_is_negated_reduction():
    assert percent_increase([10], [12]) == pytest.approx(20.0)


def test_percent_reduction_skips_zero_baselines():
    assert percent_reduction([0, 10], [99, 5]) == pytest.approx(50.0)


def test_percent_reduction_validation():
    with pytest.raises(ValueError):
        percent_reduction([1, 2], [1])
    with pytest.raises(ValueError):
        percent_reduction([], [])
    with pytest.raises(ValueError):
        percent_reduction([0.0], [1.0])


def test_crossover_rate_finds_first_stable_win():
    rates = [10, 20, 30, 40]
    a = [5, 5, 3, 2]
    b = [4, 4, 4, 4]
    assert crossover_rate(rates, a, b) == 30


def test_crossover_rate_none_when_never_wins():
    rates = [10, 20]
    assert crossover_rate(rates, [5, 5], [4, 4]) is None


def test_crossover_rate_requires_stability():
    rates = [10, 20, 30]
    a = [3, 9, 3]       # wins at 10, loses at 20, wins at 30
    b = [4, 4, 4]
    assert crossover_rate(rates, a, b) == 30


def test_crossover_rate_validation():
    with pytest.raises(ValueError):
        crossover_rate([1, 2], [1], [1, 2])


def test_build_headline_claims_full_input():
    series = {
        "load_up": {"no-buffer": [100.0], "buffer-256": [20.0]},
        "switch_usage": {"no-buffer": [200.0], "buffer-256": [210.0]},
        "b_buffer_avg": {"buffer-256": [20.0], "flow-buffer-256": [4.0]},
    }
    claims = build_headline_claims(series)
    by_name = {c.name: c for c in claims}
    load = by_name["control path load reduction (switch->controller)"]
    assert load.measured_value == pytest.approx(80.0)
    assert load.paper_value == 78.7
    assert load.same_direction
    switch = by_name["switch overhead increase"]
    assert switch.measured_value == pytest.approx(5.0)
    buffer_claim = by_name["buffer utilization improvement"]
    assert buffer_claim.measured_value == pytest.approx(80.0)


def test_build_headline_claims_partial_input_skips_missing():
    claims = build_headline_claims({})
    assert claims == []


def test_claim_direction_detection():
    series = {"load_up": {"no-buffer": [10.0], "buffer-256": [20.0]}}
    (claim,) = build_headline_claims(series)
    assert claim.measured_value < 0
    assert not claim.same_direction
