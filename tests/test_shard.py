"""Sharded execution tests: spec semantics, partitioning, the link
seam, bit-identity against serial runs, determinism, and cache keying."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import BufferConfig, buffer_256
from repro.experiments import run_once, workload_a_factory
from repro.faults import loss_fault
from repro.parallel import SweepJob, register_jobs, task_key
from repro.scenarios import build_scenario, parse_scenario
from repro.shard import (OFF, PER_SWITCH, ShardSpec, build_partition_plan,
                         execute_sharded, metrics_fingerprint, parse_shard,
                         verify_shard_equivalence)
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import single_packet_flows

_FACTORY = workload_a_factory(n_flows=25)


def _workload(n_flows=20, seed=3, rate=4.0):
    return single_packet_flows(mbps(rate), n_flows=n_flows,
                               rng=RandomStreams(seed))


# ---------------------------------------------------------------------------
# ShardSpec semantics
# ---------------------------------------------------------------------------

def test_spec_defaults_off():
    assert not OFF.is_active
    assert OFF.name == "off"
    assert PER_SWITCH.is_active
    assert PER_SWITCH.name == "per-switch"
    assert PER_SWITCH.with_workers(4).name == "per-switch:4"


def test_spec_validation():
    with pytest.raises(ValueError):
        ShardSpec(mode="per-flow")
    with pytest.raises(ValueError):
        ShardSpec(mode="off", workers=2)
    with pytest.raises(ValueError):
        ShardSpec(mode="per-switch", workers=0)


def test_parse_shard():
    assert parse_shard("off") == OFF
    assert parse_shard("per-switch") == PER_SWITCH
    assert parse_shard("per-switch:3") == ShardSpec(mode="per-switch",
                                                    workers=3)
    with pytest.raises(ValueError):
        parse_shard("per-switch:zero")
    with pytest.raises(ValueError):
        parse_shard("round-robin")


def test_spec_cache_tokens_distinct():
    tokens = {
        OFF.cache_token(),
        PER_SWITCH.cache_token(),
        PER_SWITCH.with_workers(1).cache_token(),
        PER_SWITCH.with_workers(2).cache_token(),
    }
    assert len(tokens) == 4


def test_scenario_name_and_token_carry_shard():
    spec = parse_scenario("line:2")
    sharded = spec.with_shard(PER_SWITCH)
    assert spec.name == "line:2"
    assert sharded.name == "line:2+shard=per-switch"
    assert "shard=mode=per-switch" in sharded.cache_token()
    assert spec.cache_token() != sharded.cache_token()


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

def test_partition_plan_line_two():
    testbed = build_scenario(parse_scenario("line:2"), BufferConfig(),
                             _workload(), seed=1)
    plan = build_partition_plan(testbed, PER_SWITCH)
    testbed.shutdown()
    assert plan.n_shards == 3
    assert plan.shard_of_node["s1"] == plan.shard_of_node["host1"]
    assert plan.shard_of_node["s2"] == plan.shard_of_node["host2"]
    assert plan.controller_shard == 2
    # Both directions of every inter-shard cable are cut; host cables
    # stay internal.
    cut_cables = {cut.cable for cut in plan.cut_links}
    assert cut_cables == {("s1", "s2"), ("s1", "controller"),
                          ("s2", "controller")}
    assert all(cut.lookahead > 0 for cut in plan.cut_links)


def test_partition_plan_worker_grouping():
    testbed = build_scenario(parse_scenario("line:4"), BufferConfig(),
                             _workload(), seed=1)
    plan = build_partition_plan(testbed, PER_SWITCH.with_workers(2))
    testbed.shutdown()
    # 2 workers: two balanced switch groups, controller rides the last.
    assert plan.n_shards == 2
    assert plan.shard_of_node["s1"] == plan.shard_of_node["s2"] == 0
    assert plan.shard_of_node["s3"] == plan.shard_of_node["s4"] == 1
    assert plan.controller_shard == 1
    cut_cables = {cut.cable for cut in plan.cut_links}
    # The group seam and the remote group's control cables are cut;
    # intra-group cables are not.
    assert ("s2", "s3") in cut_cables
    assert ("s1", "controller") in cut_cables
    assert ("s1", "s2") not in cut_cables
    assert ("s3", "controller") not in cut_cables


def test_partition_single_worker_means_no_cuts():
    testbed = build_scenario(parse_scenario("line:2"), BufferConfig(),
                             _workload(), seed=1)
    plan = build_partition_plan(testbed, PER_SWITCH.with_workers(1))
    testbed.shutdown()
    assert plan.n_shards == 1
    assert plan.cut_links == ()


# ---------------------------------------------------------------------------
# The link seam
# ---------------------------------------------------------------------------

def test_link_outbound_seam_diverts_delivery():
    from repro.netsim import Link
    from repro.simkit import Simulator
    sim = Simulator()
    link = Link(sim, "cut", bandwidth_bps=8e6, propagation_delay=1e-3)
    received, emitted = [], []
    link.connect(received.append)
    link._outbound = lambda deliver, item: emitted.append((deliver, item))
    link.send("frame", 1000)
    sim.run(until=1.0)
    assert received == []
    assert len(emitted) == 1
    deliver, item = emitted[0]
    assert item == "frame"
    # Serialization (1ms at 8Mbps for 1000B) + propagation (1ms).
    assert deliver == pytest.approx(2e-3)
    # Clearing the seam restores local delivery.
    link._outbound = None
    link.send("frame2", 1000)
    sim.run(until=2.0)
    assert received == ["frame2"]


# ---------------------------------------------------------------------------
# Bit-identity against serial execution (the tentpole acceptance gate)
# ---------------------------------------------------------------------------

def test_verify_bit_identity_line_two():
    report = verify_shard_equivalence(parse_scenario("line:2"),
                                      transport="inline")
    assert report.ok, report.summary()
    assert report.n_shards == 3
    assert report.messages > 0
    assert sum(report.event_counts.values()) > 0


def test_verify_bit_identity_fanin_four():
    report = verify_shard_equivalence(parse_scenario("fanin:4"),
                                      transport="inline")
    assert report.ok, report.summary()
    assert report.n_shards == 2


def test_verify_bit_identity_under_faults():
    report = verify_shard_equivalence(parse_scenario("line:2"),
                                      transport="inline", n_flows=15,
                                      faults=loss_fault(0.05))
    assert report.ok, report.summary()


def test_fork_transport_matches_inline():
    spec = parse_scenario("line:2").with_shard(PER_SWITCH)
    workload = _workload(n_flows=10)
    runs = {}
    for transport in ("inline", "fork"):
        runs[transport] = execute_sharded(
            BufferConfig(), workload, seed=3, scenario=spec,
            transport=transport, record_events=True)
    assert metrics_fingerprint(runs["inline"].metrics) \
        == metrics_fingerprint(runs["fork"].metrics)
    # Inline shards ride the fork path's own channel over a loopback, so
    # they run the same rounds and see the same event streams.  Their
    # wire bytes may differ: inline shards share the process's xid and
    # packet-uid counters, and pickle sizes an int by its value.
    def wire(report):
        return (report.rounds, report.messages, report.rounds_coalesced,
                report.horizon_stalls)
    assert wire(runs["inline"].report) == wire(runs["fork"].report)
    assert runs["inline"].report.events == runs["fork"].report.events
    assert runs["inline"].report.events


def test_run_once_dispatches_to_sharded():
    serial = run_once(BufferConfig(), _workload(), seed=3,
                      scenario=parse_scenario("line:2"))
    sharded = run_once(BufferConfig(), _workload(), seed=3,
                       scenario=parse_scenario("line:2")
                       .with_shard(PER_SWITCH))
    assert metrics_fingerprint(serial) == metrics_fingerprint(sharded)


def test_sharded_refuses_incompatible_scenarios():
    """Shard×hybrid and shard×pool fail when the spec is built, in
    either composition order, not inside the sharded run."""
    workload = _workload(n_flows=5)
    with pytest.raises(ValueError, match="active ShardSpec"):
        execute_sharded(BufferConfig(), workload,
                        scenario=parse_scenario("line:2"))
    from repro.bufferpool import parse_pool
    from repro.scenarios import parse_engine
    line = parse_scenario("line:2")
    hybrid, pool = parse_engine("hybrid"), parse_pool("static")
    with pytest.raises(ValueError, match="hybrid engine"):
        line.with_shard(PER_SWITCH).with_engine(hybrid)
    with pytest.raises(ValueError, match="hybrid engine"):
        line.with_engine(hybrid).with_shard(PER_SWITCH)
    with pytest.raises(ValueError, match="shared buffer"):
        line.with_shard(PER_SWITCH).with_pool(pool)
    with pytest.raises(ValueError, match="shared buffer"):
        line.with_pool(pool).with_shard(PER_SWITCH)
    # Each axis alone still composes, and so does shard=off.
    assert line.with_engine(hybrid).with_shard(OFF).engine == hybrid
    assert line.with_pool(pool).with_shard(OFF).pool == pool


@pytest.mark.parametrize("axis", (["--engine", "hybrid"],
                                  ["--pool", "static"]))
def test_cli_rejects_shard_combination_before_any_task(axis, capsys,
                                                       monkeypatch):
    from repro.experiments import cli as cli_module
    ran = []
    monkeypatch.setattr(cli_module, "run_benefits_experiment",
                        lambda **kwargs: ran.append(kwargs))
    code = cli_module.main(["fig2a", *axis, "--shard", "per-switch",
                            "--rates", "20", "--reps", "1", "--flows", "20",
                            "--workers", "1", "--no-cache"])
    assert code == 2
    assert ran == []
    assert "sharded execution does not compose" in capsys.readouterr().err


@pytest.mark.parametrize("option", (["--loss", "2"], ["--flows", "0"],
                                    ["--rate", "-1"], ["--rate", "nan"]))
def test_shard_verify_rejects_unusable_options(option, capsys, monkeypatch):
    """Usage errors exit 2 with one line before any testbed is built;
    exit 1 stays the code for "sharded diverged from serial"."""
    import repro.shard
    from repro.experiments.cli import main
    ran = []
    monkeypatch.setattr(repro.shard, "verify_shard_equivalence",
                        lambda *args, **kwargs: ran.append(kwargs))
    assert main(["shard-verify", *option]) == 2
    assert ran == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and option[0] in err


def test_unknown_transport_rejected():
    spec = parse_scenario("line:2").with_shard(PER_SWITCH)
    with pytest.raises(ValueError, match="transport"):
        execute_sharded(BufferConfig(), _workload(n_flows=5),
                        scenario=spec, transport="carrier-pigeon")


# ---------------------------------------------------------------------------
# Determinism property (satellite: hypothesis)
# ---------------------------------------------------------------------------

@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**16),
       workers=st.sampled_from([None, 1, 2, 4]))
def test_shard_determinism_property(seed, workers):
    """Same seed + ShardSpec ⇒ identical merged metrics, run to run and
    across worker counts (every worker count must match workers=1)."""
    shard = ShardSpec(mode="per-switch", workers=workers)
    spec = parse_scenario("line:3").with_shard(shard)
    runs = [
        run_once(buffer_256(), _workload(n_flows=8, seed=seed), seed=seed,
                 scenario=spec)
        for _ in range(2)
    ]
    assert metrics_fingerprint(runs[0]) == metrics_fingerprint(runs[1])
    baseline = run_once(
        buffer_256(), _workload(n_flows=8, seed=seed), seed=seed,
        scenario=parse_scenario("line:3")
        .with_shard(ShardSpec(mode="per-switch", workers=1)))
    assert metrics_fingerprint(runs[0]) == metrics_fingerprint(baseline)


# ---------------------------------------------------------------------------
# Result-cache keying (sharded and serial runs never share entries)
# ---------------------------------------------------------------------------

def _job(scenario=None):
    job = SweepJob(config=buffer_256(), factory=_FACTORY, rates_mbps=(20,),
                   repetitions=1, base_seed=1, scenario=scenario)
    register_jobs([job])
    return job


def _key_of(job):
    return task_key(job, job.tasks()[0])


def test_shard_spec_participates_in_cache_key():
    line = parse_scenario("line:2")
    base = _key_of(_job(line))
    assert _key_of(_job(line)) == base                       # stable
    sharded = _key_of(_job(line.with_shard(PER_SWITCH)))
    assert sharded != base
    assert _key_of(_job(line.with_shard(PER_SWITCH.with_workers(2)))) \
        != sharded
    # Explicit off keys identically to the default.
    assert _key_of(_job(line.with_shard(OFF))) == base


def test_spec_survives_pickle():
    import pickle
    spec = parse_shard("per-switch:2")
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.cache_token() == spec.cache_token()
