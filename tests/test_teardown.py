"""A finished run leaves no cyclic garbage (DESIGN.md §23).

``Testbed.shutdown()`` ends every run by unwiring the callbacks the
build wired, so dropping a finished testbed frees it by reference
counting alone.  Each case runs with the cyclic collector disabled and
then asks it what the run left behind: the answer must be nothing.  A
failure prints the garbage's type counts, which name the class whose
callback still closes a cycle.
"""

from __future__ import annotations

import collections
import gc
import weakref

import pytest

from repro.bufferpool import parse_pool
from repro.controllersim import ControllerConfig, StatsPoller
from repro.core import BufferConfig, buffer_256, flow_buffer_256, no_buffer
from repro.engine import HYBRID
from repro.experiments import TestbedCalibration, run_once
from repro.faults import parse_fault
from repro.obs import ComponentProfiler, ObsConfig, RunObserver
from repro.scenarios import SINGLE, parse_scenario
from repro.shard import PER_SWITCH, execute_sharded
from repro.simkit import RandomStreams, mbps
from repro.switchsim import SwitchConfig
from repro.switchsim.qos import attach_scheduler
from repro.trafficgen import (flow_train_flows, recurring_flows,
                              single_packet_flows)


def _workload(n_flows=40):
    return single_packet_flows(mbps(50), n_flows=n_flows,
                               rng=RandomStreams(11))


def _cyclic_garbage(run) -> collections.Counter:
    """Type counts of what ``run()`` leaves in reference cycles."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return collections.Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _assert_no_cycles(run) -> None:
    garbage = _cyclic_garbage(run)
    assert not garbage, (f"{sum(garbage.values())} objects left in "
                         f"cycles: {garbage.most_common(12)}")


def _on_port_scheduler(testbed):
    switch = testbed.switches[0]
    attach_scheduler(switch.datapath.ports[2], testbed.sim)


def _on_stats_poller(testbed):
    StatsPoller(testbed.sim, testbed.controller, period=0.05).start()


def _on_profiler(testbed):
    testbed.sim.attach_profiler(ComponentProfiler(stride=1))


_CACHED = TestbedCalibration(
    switch=SwitchConfig(microflow_cache_capacity=1024),
    controller=ControllerConfig())

CASES = {
    "single": dict(),
    "no-buffer": dict(config=no_buffer()),
    "flow-granularity": dict(config=flow_buffer_256()),
    "line:4": dict(scenario=parse_scenario("line:4")),
    "fanin:4+dt": dict(scenario=parse_scenario("fanin:4").with_pool(
        parse_pool("dt:alpha=1"))),
    "faults": dict(config=flow_buffer_256(), faults=parse_fault(
        "loss=0.05,jitter=0.0005,dup=0.01")),
    "hybrid": dict(scenario=SINGLE.with_engine(HYBRID),
                   workload=lambda: flow_train_flows(
                       mbps(4), n_flows=20, packets_per_flow=16,
                       rng=RandomStreams(5))),
    "observer": dict(obs=lambda: RunObserver(ObsConfig(
        trace=True, profile=True, monitor=True))),
    "profiler": dict(on_testbed=_on_profiler),
    "port-scheduler": dict(on_testbed=_on_port_scheduler),
    "microflow-cache": dict(calibration=_CACHED, workload=lambda:
                            recurring_flows(mbps(20), n_flows=4, rounds=6)),
    "stats-poller": dict(on_testbed=_on_stats_poller),
    # Cut short with jobs still waiting in the bus and controller
    # stations: each waiting job's on_done leads back to its station.
    "station-backlog": dict(config=no_buffer(), drain=0.0, max_extends=0,
                            workload=lambda: single_packet_flows(
                                mbps(95), n_flows=300,
                                rng=RandomStreams(2))),
}


@pytest.mark.filterwarnings("ignore:run_once.*ended incomplete")
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_leaves_no_cyclic_garbage(case):
    options = dict(CASES[case])
    config = options.pop("config", buffer_256())
    workload = options.pop("workload", _workload)()
    make_obs = options.pop("obs", None)

    def run():
        # The observer lives only as long as the run: one held here
        # would keep the whole testbed reachable, cycles and all.
        obs = make_obs() if make_obs is not None else None
        run_once(config, workload, seed=3, obs=obs, **options)

    _assert_no_cycles(run)


def test_inline_sharded_run_leaves_no_cyclic_garbage():
    workload = _workload(n_flows=20)
    spec = parse_scenario("line:4").with_shard(PER_SWITCH)
    _assert_no_cycles(lambda: execute_sharded(
        BufferConfig(), workload, seed=3, scenario=spec,
        transport="inline"))


def test_finished_simulator_is_freed_by_reference_counting():
    """The last reference to a finished run's simulator frees it at
    once: no collection runs, and the weak reference dies with it."""
    refs = []

    def keep_weak(testbed):
        refs.append(weakref.ref(testbed.sim))

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run_once(buffer_256(), _workload(), seed=3, on_testbed=keep_weak)
        assert refs[0]() is None
    finally:
        if was_enabled:
            gc.enable()
