"""The scenario layer: specs, the one wiring, and topology-agnostic sweeps.

The two acceptance bars of the refactor:

* the default single-switch sweep routed through the scenario layer is
  **bit-identical** to the pre-refactor direct ``build_testbed`` path
  (golden values below were captured on the pre-scenario code), and
* a ``line(n)`` study runs end-to-end through the parallel engine with
  caching and observation, producing the control-overhead-vs-path-length
  figure for n in {1, 2, 4}.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import buffer_16, buffer_256, flow_buffer_256, no_buffer
from repro.experiments import run_once, run_path_experiment, sweep
from repro.experiments.figures import workload_a_factory
from repro.faults import FaultSpec
from repro.parallel import ResultCache, SweepJob
from repro.parallel.cache import CACHE_SCHEMA, task_key
from repro.scenarios import (SHAPES, SINGLE, ScenarioSpec, build_scenario,
                             fanin_scenario, line_scenario, parse_scenario,
                             shard_workload, single_scenario)
from repro.shard import metrics_fingerprint
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import batched_multi_packet_flows, single_packet_flows


# ---------------------------------------------------------------------------
# ScenarioSpec + parse_scenario
# ---------------------------------------------------------------------------

def test_spec_names():
    assert single_scenario().name == "single"
    assert line_scenario(4).name == "line:4"
    assert fanin_scenario(3).name == "fanin:3"


def test_parse_scenario_round_trips():
    for text in ("single", "line:1", "line:4", "fanin:2"):
        assert parse_scenario(text).name == text


def test_parse_scenario_rejects_bad_input():
    with pytest.raises(ValueError, match="takes no size"):
        parse_scenario("single:2")
    with pytest.raises(ValueError, match="needs a size"):
        parse_scenario("line")
    with pytest.raises(ValueError, match="must be an integer"):
        parse_scenario("line:x")
    with pytest.raises(ValueError, match="unknown scenario"):
        parse_scenario("ring:3")


def test_spec_validation():
    with pytest.raises(ValueError):
        line_scenario(0)
    with pytest.raises(ValueError):
        fanin_scenario(0)
    with pytest.raises(ValueError):
        ScenarioSpec(shape="")


@pytest.mark.parametrize("shape, n_switches, n_sources", [
    ("single", 3, 1), ("single", 1, 2), ("line", 2, 4), ("fanin", 3, 2)])
def test_spec_rejects_sizes_its_shape_ignores(shape, n_switches, n_sources):
    """A size the builder never reads would name and cache a second spec
    for the same testbed."""
    with pytest.raises(ValueError, match="has one"):
        ScenarioSpec(shape=shape, n_switches=n_switches,
                     n_sources=n_sources)


@pytest.mark.parametrize("shape, n_switches, dpid", [
    ("line", 2, 5), ("line", 2, 0), ("single", 1, 2), ("fanin", 1, 2)])
def test_spec_rejects_overrides_for_missing_datapaths(shape, n_switches,
                                                      dpid):
    with pytest.raises(ValueError, match=f"datapath {dpid}"):
        ScenarioSpec(shape=shape, n_switches=n_switches,
                     n_sources=2 if shape == "fanin" else 1,
                     switch_overrides=((dpid, (("cpu_cores", 2),)),))


def test_spec_rejects_unknown_shape_at_construction():
    with pytest.raises(ValueError,
                       match=r"unknown scenario shape 'nope'; registered: "
                             r"\['fanin', 'line', 'single'\]"):
        ScenarioSpec(shape="nope")


def test_spec_is_frozen_and_hashable():
    spec = line_scenario(2)
    assert spec == line_scenario(2)
    assert hash(spec) == hash(line_scenario(2))
    assert spec != line_scenario(3)
    assert len({single_scenario(), SINGLE, line_scenario(2)}) == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.n_switches = 5


def test_spec_overrides_are_canonicalized_per_datapath():
    spec = ScenarioSpec(
        shape="line", n_switches=2,
        switch_overrides=((2, (("cpu_cores", 4),)),
                          (1, (("cpu_cores", 2),))))
    assert spec.override_for(1) == {"cpu_cores": 2}
    assert spec.override_for(2) == {"cpu_cores": 4}
    assert spec.override_for(3) == {}
    # canonical order makes construction-order irrelevant for equality
    flipped = ScenarioSpec(
        shape="line", n_switches=2,
        switch_overrides=((1, (("cpu_cores", 2),)),
                          (2, (("cpu_cores", 4),))))
    assert spec == flipped and hash(spec) == hash(flipped)


def test_cache_tokens_distinguish_topologies():
    tokens = {single_scenario().cache_token(),
              line_scenario(1).cache_token(),
              line_scenario(2).cache_token(),
              fanin_scenario(2).cache_token()}
    assert len(tokens) == 4


# ---------------------------------------------------------------------------
# One wiring for every shape
# ---------------------------------------------------------------------------

def test_registered_shapes():
    """Every name in SHAPES builds, through the one wiring."""
    assert set(SHAPES) == {"single", "line", "fanin"}
    for shape in SHAPES:
        testbed = build_scenario(ScenarioSpec(shape=shape), buffer_16(),
                                 _workload(n_flows=3))
        try:
            assert testbed.spec.shape == shape
            assert len(testbed.switches) == len(testbed.hosts) - 1 == 1
        finally:
            testbed.shutdown()


@pytest.mark.parametrize("name", ["single", "line:3", "fanin:3"])
def test_one_wiring_rule(name):
    """K sources -> s1 -> ... -> sN -> host2 on every shape: data cables
    deliver toward host2 on ``forward``, switch 1 takes the sources on
    ports 1..K and every other switch its upstream neighbour on port 1,
    each switch reaches host2 on the next port, and every host location
    is scoped to one datapath."""
    testbed = build_scenario(parse_scenario(name), buffer_256(),
                             _workload(n_flows=12), seed=9)
    sources, host2 = testbed.hosts[:-1], testbed.hosts[-1]
    locator = testbed.controller.app.locator
    try:
        for host in testbed.hosts:
            assert locator.locate(mac=host.mac, ip=host.ip) is None
        for index, switch in enumerate(testbed.switches):
            n_in = len(sources) if index == 0 else 1
            assert sorted(switch.datapath.ports) == list(range(1, n_in + 2))
            for i, host in enumerate(sources):
                assert locator.locate(
                    ip=host.ip, datapath_id=switch.datapath_id) \
                    == (i + 1 if index == 0 else 1)
            assert locator.locate(ip=host2.ip,
                                  datapath_id=switch.datapath_id) == n_in + 1

        testbed.controller.start_handshake()
        for pktgen in testbed.pktgens:
            pktgen.start(at=0.02)
        testbed.sim.run(until=1.0)
        total = sum(host.packets_sent for host in sources)
        assert total == 12 and host2.packets_received == total
        hop = {host.name: 0 for host in sources}
        hop.update((switch.name, index + 1)
                   for index, switch in enumerate(testbed.switches))
        hop[host2.name] = len(testbed.switches) + 1
        for (a, b), cable in testbed.topology.cables():
            if "controller" in (a, b):
                continue
            assert hop[b] == hop[a] + 1, (a, b)
            assert cable.forward.items_sent > 0, (a, b)
            assert cable.reverse.items_sent == 0, (a, b)
        for index, switch in enumerate(testbed.switches):
            ports = switch.datapath.ports
            received = ([host.packets_sent for host in sources]
                        if index == 0 else [total])
            ingress = range(1, len(received) + 1)
            assert [ports[p].rx_packets for p in ingress] == received
            assert not any(ports[p].tx_packets for p in ingress)
            assert ports[len(received) + 1].tx_packets == total
    finally:
        testbed.shutdown()


@pytest.mark.parametrize("config", [no_buffer, buffer_256, flow_buffer_256])
@pytest.mark.parametrize("rate", [20, 80])
def test_size_one_shapes_run_the_fig1_testbed(config, rate):
    """single, line:1 and fanin:1 are one 1x1 wiring: equal runs."""
    workload = batched_multi_packet_flows(mbps(rate), n_flows=30,
                                          packets_per_flow=4,
                                          rng=RandomStreams(5))
    fingerprints = [
        metrics_fingerprint(run_once(config(), workload, seed=5,
                                     scenario=parse_scenario(name)))
        for name in ("single", "line:1", "fanin:1")]
    assert fingerprints[0] == fingerprints[1] == fingerprints[2]


def test_unknown_shape_raises_with_known_list():
    workload = single_packet_flows(mbps(20), n_flows=3,
                                   rng=RandomStreams(0))
    with pytest.raises(ValueError, match="registered"):
        build_scenario(ScenarioSpec(shape="ring"), buffer_16(), workload)


def test_unknown_calibration_name_raises():
    workload = single_packet_flows(mbps(20), n_flows=3,
                                   rng=RandomStreams(0))
    with pytest.raises(ValueError, match="unknown calibration"):
        build_scenario(ScenarioSpec(calibration="lab"), buffer_16(),
                       workload)


# ---------------------------------------------------------------------------
# Golden bit-identity: the default sweep through the scenario layer
# ---------------------------------------------------------------------------

#: Captured on the pre-refactor code path (direct build_testbed), from
#: sweep(buffer_16(), workload_a_factory(n_flows=25), (20.0, 60.0), 2,
#: base_seed=3).  Exact floats — the refactor must not move a single bit.
_GOLDEN_ROWS = (
    (20.0, 2.56922477067475, 2.723378256915235, 13.265,
     198.60399999999998, 0.001089000275862074, 0.0007028399999999993,
     0.00038616027586207274, 0.001089000275862074, 5.5, 12.0, 25.0,
     25.0, 25, 0.0),
    (60.0, 10.901547045203365, 12.13357119757224, 5.0, 180.0,
     0.001218363486896557, 0.0007800192000000004,
     0.0004383442868965559, 0.001218363486896557, 0.0, 16.0, 25.0,
     25.0, 25, 0.0),
)


def _row_tuple(r):
    return (r.rate_mbps, r.load_up_mbps, r.load_down_mbps,
            r.controller_usage.mean, r.switch_usage.mean,
            r.setup_delay.mean, r.controller_delay.mean,
            r.switch_delay.mean, r.forwarding_delay.mean,
            r.buffer_avg_units, r.buffer_max_units, r.packet_ins_per_run,
            r.completed_flows, r.total_flows, r.packets_dropped)


def test_default_sweep_is_bit_identical_to_pre_refactor_golden():
    """ACCEPTANCE: scenario-layer default == historical testbed, exactly."""
    result = sweep(buffer_16(), workload_a_factory(n_flows=25),
                   (20.0, 60.0), 2, base_seed=3)
    assert tuple(_row_tuple(row) for row in result.rows) == _GOLDEN_ROWS


def test_sweep_explicit_single_scenario_matches_default():
    kwargs = dict(rates_mbps=(20.0,), repetitions=1, base_seed=7)
    default = sweep(buffer_16(), workload_a_factory(n_flows=15), **kwargs)
    explicit = sweep(buffer_16(), workload_a_factory(n_flows=15),
                     scenario=single_scenario(), **kwargs)
    assert [_row_tuple(r) for r in default.rows] \
        == [_row_tuple(r) for r in explicit.rows]


# ---------------------------------------------------------------------------
# Line and fan-in runs
# ---------------------------------------------------------------------------

def _workload(n_flows=10, seed=9, rate=20):
    return single_packet_flows(mbps(rate), n_flows=n_flows,
                               rng=RandomStreams(seed))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_line_run_pays_one_setup_per_switch(n):
    metrics = run_once(buffer_256(), _workload(), seed=9,
                       scenario=line_scenario(n))
    assert metrics.completed_flows == metrics.total_flows == 10
    assert metrics.packet_in_count == n * 10
    assert metrics.packets_dropped == 0


def test_line_testbed_exposes_per_switch_accounting():
    testbed = build_scenario(line_scenario(2), buffer_256(), _workload(),
                             seed=9)
    try:
        assert [s.name for s in testbed.switches] == ["s1", "s2"]
        assert [s.datapath_id for s in testbed.switches] == [1, 2]
        assert len({s.agent.channel.cable for s in testbed.switches}) == 2
        assert len(testbed.topology) == 2 + 2 + 1   # hosts+switches+ctrl
    finally:
        testbed.shutdown()


def test_fanin_build_and_run():
    spec = fanin_scenario(3)
    testbed = build_scenario(spec, buffer_256(), _workload(n_flows=12),
                             seed=9)
    try:
        assert len(testbed.hosts) == 4                  # 3 sources + egress
        assert [h.name for h in testbed.hosts[:-1]] \
            == ["src1", "src2", "src3"]
        assert len(testbed.pktgens) == 3
    finally:
        testbed.shutdown()
    metrics = run_once(buffer_256(), _workload(n_flows=12), seed=9,
                       scenario=spec)
    assert metrics.completed_flows == metrics.total_flows == 12
    assert metrics.packets_dropped == 0


def test_shard_workload_partitions_by_flow():
    workload = _workload(n_flows=10)
    shards = shard_workload(workload, 3)
    assert sum(len(s.entries) for s in shards) == len(workload.entries)
    assert sum(len(s.flows) for s in shards) == len(workload.flows)
    for index, shard in enumerate(shards):
        assert all(fid % 3 == index for fid in shard.flows)
    with pytest.raises(ValueError):
        shard_workload(workload, 0)


# ---------------------------------------------------------------------------
# Cache keys: the poisoning regression (satellite 1)
# ---------------------------------------------------------------------------

def _job(scenario=None):
    # job_id only gates tasks(); task_key deliberately excludes it.
    return SweepJob(config=buffer_256(),
                    factory=workload_a_factory(n_flows=10),
                    rates_mbps=(20.0,), repetitions=1, base_seed=0,
                    scenario=scenario, job_id=1)


def test_cache_schema_bumped_for_scenario_keys():
    assert CACHE_SCHEMA >= 2


def test_cache_key_differs_for_specs_differing_only_in_topology():
    """REGRESSION: two specs differing only in topology never share a
    cache entry (the pre-scenario key omitted topology entirely)."""
    base = _job()
    keys = {task_key(job, next(iter(job.tasks())))
            for job in (base, _job(line_scenario(2)), _job(line_scenario(4)),
                        _job(fanin_scenario(2)))}
    assert len(keys) == 4


def test_cache_key_treats_none_and_single_as_the_same_run():
    a, b = _job(None), _job(single_scenario())
    assert task_key(a, next(iter(a.tasks()))) \
        == task_key(b, next(iter(b.tasks())))


def test_cache_never_returns_single_result_for_line_run(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    single_job = _job()
    line_job = _job(line_scenario(2))
    single_task = next(iter(single_job.tasks()))
    metrics = run_once(buffer_256(), _workload(), seed=single_task.seed)
    cache.put(task_key(single_job, single_task), metrics)
    assert cache.get(task_key(line_job,
                              next(iter(line_job.tasks())))) is None


# ---------------------------------------------------------------------------
# The path-length study (ACCEPTANCE: engine + cache + obs, n in {1,2,4})
# ---------------------------------------------------------------------------

def test_path_experiment_runs_with_engine_cache_and_obs(tmp_path):
    from repro.obs import ObsCollector
    cache = ResultCache(tmp_path / "cache")
    obs = ObsCollector()
    data = run_path_experiment(lengths=(1, 2, 4), rates_mbps=(30.0,),
                               repetitions=1, n_flows=10,
                               packets_per_flow=6, workers=2, cache=cache,
                               obs=obs)
    assert data.report.ok
    assert data.axes == {"length": (1, 2, 4)}
    assert data.labels == ("buffer-256", "flow-buffer-256")

    for label in data.labels:
        loads = data.series(label, lambda r: r.load_up_mbps, axis="length")
        assert loads == sorted(loads)           # overhead grows with hops
        assert loads[0] > 0
    pkt = data.series("buffer-256", lambda r: r.packet_ins_per_run,
                      axis="length")
    flow = data.series("flow-buffer-256", lambda r: r.packet_ins_per_run,
                       axis="length")
    # Flow granularity pays exactly one packet_in per (flow, switch);
    # packet granularity pays at least one per packet of the first batch.
    assert flow == [10.0, 20.0, 40.0]
    assert all(f < p for f, p in zip(flow, pkt))

    # Observation followed every task, labelled by composite sweep key
    # (these strings also name cache entries' rows and CI's greps).
    keys = [f"{label}@line:{n}" for n in (1, 2, 4)
            for label in ("buffer-256", "flow-buffer-256")]
    assert list(data.sweeps) == keys
    assert {o.label for o in obs.observations} == set(keys)

    # A second, unobserved run resolves entirely from the cache.
    again = run_path_experiment(lengths=(1, 2, 4), rates_mbps=(30.0,),
                                repetitions=1, n_flows=10,
                                packets_per_flow=6, workers=2, cache=cache)
    assert again.report.cached == again.report.total_tasks == 6
    for label in again.labels:
        for n in again.axes["length"]:
            assert _row_tuple(again.row(label, length=n)) \
                == _row_tuple(data.row(label, length=n))


def test_path_experiment_rejects_empty_lengths():
    with pytest.raises(ValueError, match="at least one line length"):
        run_path_experiment(lengths=())


# ---------------------------------------------------------------------------
# Kernel-equivalence goldens (the fast-path kernel must not move a bit)
# ---------------------------------------------------------------------------

#: Captured on the pre-fast-path kernel (commit e902188): sweep(
#: buffer_256(), workload_a_factory(n_flows=20), (20.0, 60.0), 1,
#: base_seed=11) over {single, line:2} x {no faults, 1% loss}.  The
#: optimized kernel (pooled ScheduledCalls, same-instant micro-queue,
#: single run loop, interned flow keys) must reproduce every float
#: exactly, with and without faults, serial and parallel.
_KERNEL_FAULTS = FaultSpec(loss_up=0.01, loss_down=0.01)

_KERNEL_GRID = (
    ("single", None),
    ("single", _KERNEL_FAULTS),
    ("line:2", None),
    ("line:2", _KERNEL_FAULTS),
)


def _kernel_combo_id(scenario_name, faults):
    return f"{scenario_name}/{'loss1pct' if faults else 'none'}"


_KERNEL_GOLDEN_ROWS = {
    "single/none": (
        (20.0, 2.3577027088187688, 2.499164871347895, 11.612000000000002,
         195.8512, 0.0010890002758620725, 0.0007028399999999997,
         0.00038616027586207274, 0.0010890002758620725, 3.0, 12.0, 20.0,
         20.0, 20, 0.0),
        (60.0, 3.7635651254500995, 3.989379032977105, 5.0, 180.0,
         0.0010890002758620725, 0.0007028399999999997,
         0.00038616027586207274, 0.0010890002758620725, 0.0, 20.0, 20.0,
         20.0, 20, 0.0),
    ),
    "single/loss1pct": (
        (20.0, 2.3577027088187688, 2.499164871347895, 11.612000000000002,
         195.8512, 0.0010890002758620725, 0.0007028399999999997,
         0.00038616027586207274, 0.0010890002758620725, 3.0, 12.0, 20.0,
         20.0, 20, 0.0),
        (60.0, 3.7635651254500995, 3.989379032977105, 5.0, 180.0,
         0.0010890002758620725, 0.0007028399999999997,
         0.00038616027586207274, 0.0010890002758620725, 0.0, 20.0, 20.0,
         18.0, 20, 0.0),
    ),
    "line:2/none": (
        (20.0, 4.339924982090564, 4.6003204810159986, 18.246480799999993,
         195.8512, 0.002263225359724149, 0.0007030648080000009,
         0.001560160551724147, 0.002263225359724149, 7.5, 24.0, 40.0,
         20.0, 20, 0.0),
        (60.0, 6.61372848809185, 7.01055219737736, 5.0, 180.0,
         0.0022631460157241483, 0.0007029854640000005,
         0.001560160551724147, 0.0022631460157241483, 0.0, 40.0, 40.0,
         20.0, 20, 0.0),
    ),
    "line:2/loss1pct": (
        (20.0, 4.339924982090564, 4.6003204810159986, 18.246480799999993,
         195.8512, 0.002263225359724149, 0.0007030648080000009,
         0.001560160551724147, 0.002263225359724149, 7.5, 24.0, 40.0,
         20.0, 20, 0.0),
        (60.0, 6.283042063687256, 6.309496977639624, 5.0, 180.0,
         0.0022631250129006185, 0.0007029652800000003,
         0.001560160551724147, 0.0022631250129006185, 0.0, 38.0, 38.0,
         17.0, 20, 0.0),
    ),
}

#: Cache tokens for the same grid (one per rate, rates in sweep order).
#: Pinned so a kernel change can never silently re-key — and therefore
#: silently invalidate or, worse, cross-contaminate — the result cache.
#: Regenerated for CACHE_SCHEMA v4 (the pool token joined the key),
#: again for v5 (the execution engine joined through the scenario
#: token) and for v6 (the shard spec joined the same way); the golden
#: ROW values above are unchanged from the pre-pool kernel — schema
#: bumps re-key the cache, never the physics.
_KERNEL_GOLDEN_TASK_KEYS = {
    "single/none": (
        "a3a42924b61109d408b8938a939ba476dc395ab16a6b8cb7e68bc840e2140132",
        "1efcf24d3b4dec358e8244b67ed4dc0a7a8a38386ec314ef47e16674363d04cf",
    ),
    "single/loss1pct": (
        "3c8c3f8b5e3aae130a09825224818444f6886a3744c11985ed55c218d9f20202",
        "8ba0e686116a022ebc7f8440f449858d4e47a42a2d106f0f43301f48495c6975",
    ),
    "line:2/none": (
        "08e485486233bd8266cc2ce1ba89512ef688b9082cefd3f611133316110ca65a",
        "92a9587c8a0f4c12a88fb20a3136d410201df5b496d7a2926d3844c4fb4b515f",
    ),
    "line:2/loss1pct": (
        "d5e56172d01fdf34b589dec515b73ae29067d08c074bff8c6f4f831a802f1aa1",
        "7c38e8b37da945ba4e2329917a5ccb1a86da248786e73115d2e9ea8e7ed59930",
    ),
}


def _kernel_sweep(scenario_name, faults, **kwargs):
    return sweep(buffer_256(), workload_a_factory(n_flows=20),
                 (20.0, 60.0), 1, base_seed=11,
                 scenario=parse_scenario(scenario_name), faults=faults,
                 **kwargs)


@pytest.mark.parametrize("scenario_name,faults", _KERNEL_GRID,
                         ids=[_kernel_combo_id(s, f) for s, f in _KERNEL_GRID])
def test_kernel_sweep_serial_bit_identical(scenario_name, faults):
    """ACCEPTANCE: optimized kernel == pre-optimization golden, serial."""
    result = _kernel_sweep(scenario_name, faults)
    assert tuple(_row_tuple(r) for r in result.rows) \
        == _KERNEL_GOLDEN_ROWS[_kernel_combo_id(scenario_name, faults)]


@pytest.mark.parametrize("scenario_name,faults", _KERNEL_GRID,
                         ids=[_kernel_combo_id(s, f) for s, f in _KERNEL_GRID])
def test_kernel_sweep_parallel_bit_identical(scenario_name, faults):
    """ACCEPTANCE: same golden through the multiprocess engine."""
    result = _kernel_sweep(scenario_name, faults, workers=2)
    assert tuple(_row_tuple(r) for r in result.rows) \
        == _KERNEL_GOLDEN_ROWS[_kernel_combo_id(scenario_name, faults)]


def test_kernel_sweep_observed_bit_identical():
    """ACCEPTANCE: attaching the obs layer must not perturb a single bit
    (the zero-cost-when-off guards never reorder or drop events)."""
    from repro.obs import ObsCollector
    for scenario_name, faults in (("single", _KERNEL_FAULTS),
                                  ("line:2", _KERNEL_FAULTS)):
        result = _kernel_sweep(scenario_name, faults, obs=ObsCollector())
        assert tuple(_row_tuple(r) for r in result.rows) \
            == _KERNEL_GOLDEN_ROWS[_kernel_combo_id(scenario_name, faults)]


@pytest.mark.parametrize("scenario_name,faults", _KERNEL_GRID,
                         ids=[_kernel_combo_id(s, f) for s, f in _KERNEL_GRID])
def test_kernel_task_keys_pinned(scenario_name, faults):
    """The cache tokens for the golden grid are frozen byte-for-byte."""
    job = SweepJob(config=buffer_256(),
                   factory=workload_a_factory(n_flows=20),
                   rates_mbps=(20.0, 60.0), repetitions=1, base_seed=11,
                   scenario=parse_scenario(scenario_name), faults=faults,
                   job_id=1)
    tokens = tuple(task_key(job, task) for task in job.tasks())
    assert tokens \
        == _KERNEL_GOLDEN_TASK_KEYS[_kernel_combo_id(scenario_name, faults)]


#: The line:2/none grid above, sharded per-switch (CACHE_SCHEMA v6).
#: Captured while ``ShardSpec`` still carried a wire-codec field that
#: its token left out; removing the field must leave every sharded
#: cache entry addressable, so these keys may not move.
_SHARDED_GOLDEN_TASK_KEYS = (
    "591edb3019a2dfb431387e72b71db79d4dc08edfc11448e545ff14f61052060b",
    "c337ade87fe278fdf3562b952149e68e63b000d4c184e9ac5e7286c91c24d365",
)


def test_sharded_task_keys_and_shard_tokens_pinned():
    from repro.shard import PER_SWITCH
    assert PER_SWITCH.cache_token() == "mode=per-switch|workers=None"
    assert (PER_SWITCH.with_workers(2).cache_token()
            == "mode=per-switch|workers=2")
    job = SweepJob(config=buffer_256(),
                   factory=workload_a_factory(n_flows=20),
                   rates_mbps=(20.0, 60.0), repetitions=1, base_seed=11,
                   scenario=parse_scenario("line:2").with_shard(PER_SWITCH),
                   job_id=1)
    assert CACHE_SCHEMA == 6
    assert tuple(task_key(job, task) for task in job.tasks()) \
        == _SHARDED_GOLDEN_TASK_KEYS
