"""Ablation: Algorithm 1's re-request timeout (line 12-13).

The paper leaves the timeout value unspecified.  Against a dead
controller, a shorter timeout produces proportionally more re-requests
before the flow is abandoned; against a healthy controller the timer
should never fire.  This bounds the timeout choice from both sides.
"""

from __future__ import annotations

import pytest
from figutil import plain_run_b

from repro.core import BufferConfig, flow_buffer_256
from repro.experiments import build_testbed
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import single_packet_flows

TIMEOUTS = (0.02, 0.05, 0.1)


def _run_with_dead_controller(retry_timeout: float, max_retries: int = 4):
    config = BufferConfig(mechanism="flow-granularity", capacity=64,
                          retry_timeout=retry_timeout,
                          max_retries=max_retries)
    workload = single_packet_flows(mbps(20), n_flows=5,
                                   rng=RandomStreams(2))
    testbed = build_testbed(config, workload, seed=2)
    switch = testbed.switches[0]
    switch.agent.channel.bind_controller(lambda message: None)   # dead app
    testbed.pktgens[0].start(at=0.01)
    testbed.sim.run(until=2.0)
    stats = (switch.agent.retries_sent.value,
             switch.mechanism.flows_abandoned)
    testbed.shutdown()
    return stats


def test_retry_timeout_ablation(benchmark, emit):
    lines = ["ablation: Algorithm 1 retry timeout vs a dead controller "
             "(5 flows, max_retries=4)",
             f"{'timeout(s)':>10} {'retries':>8} {'abandoned':>9}"]
    results = {}
    for timeout in TIMEOUTS:
        retries, abandoned = _run_with_dead_controller(timeout)
        results[timeout] = (retries, abandoned)
        lines.append(f"{timeout:>10.3f} {retries:>8d} {abandoned:>9d}")
    emit("ablation_retry_timeout", "\n".join(lines))

    # Every flow retries max_retries times, then is abandoned, for every
    # timeout that fits within the run horizon.
    for retries, abandoned in results.values():
        assert retries == 5 * 4
        assert abandoned == 5

    # Against a HEALTHY controller the timer never fires (timeout far
    # above the control loop's latency).
    healthy = benchmark.pedantic(plain_run_b, args=(flow_buffer_256(),),
                                 kwargs={"rate_mbps": 50},
                                 rounds=1, iterations=1)
    assert healthy.packet_in_retry_count == 0


@pytest.mark.parametrize("timeout", [0.0005])
def test_too_aggressive_timeout_duplicates_requests(benchmark, timeout):
    """A timeout below the control-loop latency re-requests needlessly."""
    config = BufferConfig(mechanism="flow-granularity", capacity=256,
                          retry_timeout=timeout, max_retries=8)

    def run():
        workload = single_packet_flows(mbps(20), n_flows=20,
                                       rng=RandomStreams(3))
        from repro.experiments import run_once
        return run_once(config, workload, seed=3)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    # The loop takes ~1 ms, so a 0.5 ms timer fires at least once per flow.
    assert result.packet_in_retry_count >= 20
    # Retried flows still complete (duplicate releases become errors).
    assert result.completed_flows == result.total_flows
