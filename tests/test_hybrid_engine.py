"""The hybrid execution engine: spec seam, equivalence, conservation.

Three layers of guarantees tie the hybrid engine to the packet engine:

1. **Bit-identity** where the fluid model never engages: on
   single-packet-flow workloads every packet is a flow's first — i.e.
   pure miss path — so hybrid and packet runs must produce *identical*
   metrics, on the single-switch testbed and on a line.
2. **Bounded deviation** where it does engage: on packet-train
   workloads the analytically advanced delays must stay within
   :data:`repro.engine.HYBRID_DELAY_TOLERANCE` of the packet engine.
3. **Conservation**: every flow the workload opens is either completed
   or abandoned, never silently lost — property-tested across
   mechanisms, rates and train shapes.

Plus the seam itself: engine specs are parsed, named, hashed and cached
distinctly, so the two engines can never poison each other's results.
"""

from __future__ import annotations

import math
import statistics

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analytic import (QueueUnstableError, mm1_sojourn,
                            mm1_sojourn_quantile,
                            packet_in_sojourn_estimate)
from repro.core import buffer_256, flow_buffer_256, no_buffer
from repro.engine import (HYBRID, HYBRID_DELAY_TOLERANCE, PACKET,
                          EngineSpec, parse_engine)
from repro.experiments import default_calibration, run_once
from repro.experiments import workload_a_factory
from repro.parallel import SweepJob, register_jobs, task_key
from repro.scenarios import (SINGLE, line_scenario, parse_scenario,
                             single_scenario)
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import (flow_train_flows, single_packet_flows,
                              tcp_eviction_scenario)

HYBRID_SINGLE = SINGLE.with_engine(HYBRID)


# ---------------------------------------------------------------------------
# The seam: spec parsing, naming, cache keying
# ---------------------------------------------------------------------------

def test_engine_spec_defaults_and_parse():
    assert PACKET.mode == "packet" and not PACKET.is_hybrid
    assert HYBRID.mode == "hybrid" and HYBRID.is_hybrid
    assert parse_engine("packet") == PACKET
    assert parse_engine(" HYBRID ") == HYBRID
    assert parse_engine("hybrid:0.2") == EngineSpec("hybrid",
                                                    burst_gap=0.2)
    assert parse_engine("hybrid:0.2").name == "hybrid:0.2"
    assert HYBRID.with_burst_gap(1.5).burst_gap == 1.5


@pytest.mark.parametrize("text", ["fluid", "packet:0.2", "hybrid:zero",
                                  "hybrid:-1"])
def test_engine_spec_rejects_bad_text(text):
    with pytest.raises(ValueError):
        parse_engine(text)


def test_scenario_name_carries_engine():
    assert SINGLE.name == "single"
    assert HYBRID_SINGLE.name == "single+engine=hybrid"
    assert (line_scenario(3).with_engine(HYBRID.with_burst_gap(0.5)).name
            == "line:3+engine=hybrid:0.5")


def test_engine_feeds_cache_tokens_and_task_keys():
    """Packet and hybrid runs of the same grid point never collide."""
    assert SINGLE.cache_token() != HYBRID_SINGLE.cache_token()
    assert (HYBRID_SINGLE.cache_token()
            != SINGLE.with_engine(HYBRID.with_burst_gap(0.3)).cache_token())

    def key(scenario):
        job = SweepJob(config=flow_buffer_256(),
                       factory=workload_a_factory(n_flows=12),
                       rates_mbps=(40,), repetitions=1, base_seed=7,
                       scenario=scenario)
        register_jobs([job])
        return task_key(job, job.tasks()[0])

    assert key(SINGLE) != key(HYBRID_SINGLE)


# ---------------------------------------------------------------------------
# Bit-identity on pure miss-path workloads
# ---------------------------------------------------------------------------

def _run_pair(scenario, n_flows=40, rate=40, seed=11):
    """The same workload through both engines on ``scenario``."""
    results = []
    for spec in (scenario, scenario.with_engine(HYBRID)):
        workload = single_packet_flows(mbps(rate), n_flows=n_flows,
                                       rng=RandomStreams(seed))
        results.append(run_once(flow_buffer_256(), workload, seed=seed,
                                scenario=spec))
    return results


@pytest.mark.parametrize("scenario", [single_scenario(), line_scenario(2)],
                         ids=["single", "line:2"])
def test_hybrid_bit_identical_on_single_packet_flows(scenario):
    """Every packet is a flow's first -> pure miss path -> identical."""
    packet, hybrid = _run_pair(scenario)
    assert hybrid.completed_flows == packet.completed_flows == 40
    assert hybrid.setup_delays == packet.setup_delays
    assert hybrid.forwarding_delays == packet.forwarding_delays
    assert hybrid.controller_delays == packet.controller_delays
    assert hybrid.packet_in_count == packet.packet_in_count
    assert hybrid.flow_mod_count == packet.flow_mod_count
    assert hybrid.control_load_up_mbps == packet.control_load_up_mbps
    assert hybrid.control_load_down_mbps == packet.control_load_down_mbps


# ---------------------------------------------------------------------------
# Bounded deviation on aggregated packet trains
# ---------------------------------------------------------------------------

def _train_metrics(engine, seed=13):
    workload = flow_train_flows(mbps(4), n_flows=50, packets_per_flow=16,
                                flow_rate=500.0)
    if not engine.is_hybrid:
        workload = workload.materialize()
    return run_once(flow_buffer_256(), workload, seed=seed,
                    scenario=SINGLE.with_engine(engine))


def test_hybrid_train_delays_within_tolerance():
    packet = _train_metrics(PACKET)
    hybrid = _train_metrics(HYBRID)
    assert hybrid.completed_flows == hybrid.total_flows == 50
    assert packet.completed_flows == packet.total_flows == 50
    # One packet_in per flow on both engines: aggregation never invents
    # or suppresses misses.
    assert hybrid.packet_in_count == packet.packet_in_count
    for attr in ("setup_delays", "forwarding_delays"):
        reference = statistics.mean(getattr(packet, attr))
        measured = statistics.mean(getattr(hybrid, attr))
        deviation = abs(measured - reference) / reference
        assert deviation <= HYBRID_DELAY_TOLERANCE, (
            f"{attr}: hybrid {measured:.6f}s vs packet "
            f"{reference:.6f}s ({deviation:.1%})")


def test_hybrid_tcp_eviction_re_misses_after_idle_gap():
    """A gap past the rule's idle timeout re-enters the discrete path.

    §VI.B: the flow goes idle long enough for the switch to evict its
    rule, then bursts on the still-open connection.  The hybrid engine
    must split the aggregate at the gap so the post-gap packet is a real
    discrete packet that re-misses — same packet_in count as the packet
    engine, not one miss and a fluid glide over the eviction.
    """
    calibration = default_calibration()
    gap = calibration.controller.flow_idle_timeout + 1.0
    counts = {}
    for spec in (SINGLE, HYBRID_SINGLE):
        workload = tcp_eviction_scenario(mbps(4), initial_packets=6,
                                         idle_gap=gap, burst_packets=20)
        metrics = run_once(buffer_256(), workload, seed=17,
                           scenario=spec, calibration=calibration)
        counts[spec.engine.mode] = metrics.packet_in_count
    assert counts["hybrid"] >= 2          # the burst really re-missed
    assert counts["hybrid"] == counts["packet"]


def _paused_train():
    """One flow of 71 packets, 0.1 s apart, with a 1.1 s pause after the
    60th: long for a segment, short of the 5 s idle timeout."""
    workload = flow_train_flows(80_000.0, n_flows=1, packets_per_flow=71,
                                flow_rate=1.0).materialize()
    entries = sorted(workload.entries, key=lambda entry: entry[0])
    workload.entries = entries[:61] + [(t + 1.0, packet)
                                       for t, packet in entries[61:]]
    return workload


@pytest.mark.parametrize("line", [1, 2])
def test_hybrid_segments_refresh_the_rules_they_ride(line):
    """Aggregated packets keep their rule alive, as discrete hits do.

    The packet engine's rule idles out 5 s after the last packet's
    lookup (t ~ 8.02 s) with every tail packet counted.  The hybrid
    rule must expire at the same sweep with the same counters, not
    5 s after install while the flow still sends, and a segment split
    at the pause must not re-miss.
    """
    scenario = SINGLE if line == 1 else line_scenario(line)
    runs = {}
    for engine in ("packet", "hybrid", "hybrid:0.5"):
        expired = []

        def watch(testbed, expired=expired):
            for switch in testbed.switches:
                switch.events.on("flow_expired",
                                 lambda now, entry: expired.append(
                                     (now, entry.packet_count,
                                      entry.byte_count)))

        metrics = run_once(flow_buffer_256(), _paused_train(), drain=6.0,
                           scenario=scenario.with_engine(
                               parse_engine(engine)),
                           on_testbed=watch)
        runs[engine] = (metrics.packet_in_count // line, expired)
    packet_ins, reference = runs["packet"]
    assert packet_ins == 1
    assert len(reference) == line
    assert reference[0][0] > 13.0 and reference[0][1:] == (70, 70_000)
    for engine in ("hybrid", "hybrid:0.5"):
        packet_ins, expired = runs[engine]
        assert packet_ins == 1, engine
        assert len(expired) == line
        for (now, *counts), (ref_now, *ref_counts) in zip(expired,
                                                           reference):
            assert abs(now - ref_now) <= 0.1 + 1e-9, engine
            assert counts == ref_counts, engine


# ---------------------------------------------------------------------------
# Lazy tails on every shape: the hybrid engine sends them, the packet
# engine refuses them until they are materialized
# ---------------------------------------------------------------------------

_SHAPES = ("single", "fanin:2", "line:3")


def _lazy_train():
    return flow_train_flows(mbps(4), n_flows=300, packets_per_flow=40,
                            flow_rate=50.0)


def test_hybrid_flow_trains_complete_on_every_shape():
    """A fanin source's share of an aggregate workload keeps its flows'
    lazy tails, so every flow completes, with the single switch's
    delays (the sources only change the switch's ingress port)."""
    runs = {shape: run_once(buffer_256(), _lazy_train(), seed=3,
                            scenario=parse_scenario(shape).with_engine(
                                HYBRID))
            for shape in _SHAPES}
    for shape, metrics in runs.items():
        assert metrics.completed_flows == metrics.total_flows == 300, shape
    assert runs["fanin:2"].setup_delays == runs["single"].setup_delays
    assert (runs["fanin:2"].forwarding_delays
            == runs["single"].forwarding_delays)


@pytest.mark.parametrize("shape", _SHAPES)
def test_packet_engine_refuses_lazy_tails_and_plays_materialized_ones(
        shape):
    scenario = parse_scenario(shape)
    with pytest.raises(ValueError, match=r"materialize\(\)"):
        run_once(buffer_256(), _lazy_train(), seed=3, scenario=scenario)
    metrics = run_once(buffer_256(), _lazy_train().materialize(), seed=3,
                       scenario=scenario)
    assert metrics.completed_flows == metrics.total_flows == 300


# ---------------------------------------------------------------------------
# Conservation property (satellite: hypothesis)
# ---------------------------------------------------------------------------

@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=st.sampled_from([no_buffer(), buffer_256(),
                               flow_buffer_256()]),
       n_flows=st.integers(min_value=1, max_value=60),
       packets_per_flow=st.integers(min_value=1, max_value=20),
       flow_rate=st.sampled_from([200.0, 500.0, 1000.0]),
       seed=st.integers(min_value=0, max_value=1000))
def test_hybrid_flow_conservation_property(config, n_flows,
                                           packets_per_flow, flow_rate,
                                           seed):
    """Every flow ends exactly one way: completed or abandoned.

    Random mechanism x train shape x arrival rate x seed: the hybrid
    engine's split between discrete firsts and analytic tails must
    never lose (or double-complete) a flow.
    """
    workload = flow_train_flows(mbps(4), n_flows=n_flows,
                                packets_per_flow=packets_per_flow,
                                flow_rate=flow_rate)
    metrics = run_once(config, workload, seed=seed,
                       scenario=HYBRID_SINGLE)
    assert metrics.total_flows == n_flows
    assert (metrics.completed_flows + metrics.flows_abandoned
            == metrics.total_flows)
    assert len(metrics.setup_delays) == metrics.completed_flows


# ---------------------------------------------------------------------------
# M/M/1 instability boundary (satellite: analytic hardening)
# ---------------------------------------------------------------------------

def test_mm1_sojourn_unstable_region_defaults_to_inf():
    assert math.isinf(mm1_sojourn(100.0, 100.0))       # exactly rho = 1
    assert math.isinf(mm1_sojourn(150.0, 100.0))       # past saturation
    assert math.isinf(mm1_sojourn_quantile(100.0, 100.0, 0.99))


def test_mm1_sojourn_strict_raises_with_diagnostics():
    with pytest.raises(QueueUnstableError) as excinfo:
        mm1_sojourn(150.0, 100.0, strict=True)
    err = excinfo.value
    assert isinstance(err, ValueError)                 # catchable as before
    assert err.arrival_rate == 150.0
    assert err.service_rate == 100.0
    assert err.utilization == pytest.approx(1.5)
    with pytest.raises(QueueUnstableError):
        mm1_sojourn_quantile(100.0, 100.0, 0.5, strict=True)


def test_mm1_sojourn_finite_just_below_boundary():
    near = mm1_sojourn(100.0 - 1e-6, 100.0)
    assert math.isfinite(near) and near > 1e4          # huge but finite
    assert mm1_sojourn(50.0, 100.0) == pytest.approx(0.02)


def test_packet_in_sojourn_estimate_strict_at_saturation():
    calibration = default_calibration()
    # Far past any real controller's knee: 10^6 Mbps of 64-byte firsts.
    assert math.isinf(packet_in_sojourn_estimate(1e6, calibration,
                                                 frame_len=64))
    with pytest.raises(QueueUnstableError):
        packet_in_sojourn_estimate(1e6, calibration, frame_len=64,
                                   strict=True)
