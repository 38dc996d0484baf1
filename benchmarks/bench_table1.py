"""Table I — the experimental-device inventory, and testbed build cost."""

from __future__ import annotations

from figutil import bench_run_a

from repro.core import buffer_256
from repro.experiments import build_testbed, format_table_1
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import single_packet_flows


def test_table1_inventory_and_testbed_build(benchmark, emit):
    """Emit the Table I analogue; benchmark testbed assembly."""
    emit("table1", "Table I: experimental devices\n" + format_table_1())

    def build():
        workload = single_packet_flows(mbps(50), n_flows=100,
                                       rng=RandomStreams(0))
        return build_testbed(buffer_256(), workload)

    testbed = benchmark.pedantic(build, rounds=3, iterations=1)
    assert len(testbed.switches) == 1
    assert testbed.controller is not None
    testbed.shutdown()


def test_table1_single_run_cost(benchmark):
    """Wall-clock cost of one full workload-A repetition."""
    result = bench_run_a(benchmark, buffer_256())
    assert result.completed_flows == result.total_flows
