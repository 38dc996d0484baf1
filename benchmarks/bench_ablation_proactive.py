"""Ablation: reactive (+buffer) vs fully proactive provisioning.

Positions the paper's contribution in the design space its related work
spans: proactive wildcard routing eliminates control traffic entirely
(but gives up per-flow rules and counters); reactive control keeps
per-flow visibility, and the switch buffer is what makes its cost
tolerable.
"""

from __future__ import annotations

from figutil import plain_run_a

from repro.controllersim import ProactiveProvisioner, destination_routes
from repro.core import buffer_256, no_buffer
from repro.experiments import build_testbed
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import HOST1_IP, HOST2_IP, single_packet_flows

RATE = 65
N_FLOWS = 300


def _run_proactive():
    workload = single_packet_flows(mbps(RATE), n_flows=N_FLOWS,
                                   rng=RandomStreams(0))
    testbed = build_testbed(buffer_256(), workload, seed=0)
    ProactiveProvisioner(
        testbed.controller,
        destination_routes(1, {HOST1_IP: 1, HOST2_IP: 2})).provision()
    testbed.sim.run(until=0.01)
    testbed.pktgens[0].start(at=0.0)
    testbed.sim.run(until=2.0)
    stats = {
        "packet_ins": testbed.switches[0].agent.packet_ins_sent.value,
        "control_kb": (testbed.metrics.capture_up.bytes_total
                       + testbed.metrics.capture_down.bytes_total) / 1000,
        "rules": len(testbed.switches[0].datapath.table),
        "delivered": testbed.hosts[-1].packets_received,
    }
    testbed.shutdown()
    return stats


def test_proactive_vs_reactive_ablation(benchmark, emit):
    proactive = _run_proactive()
    reactive_bare = plain_run_a(no_buffer(), rate_mbps=RATE,
                                n_flows=N_FLOWS)
    reactive_buffered = plain_run_a(buffer_256(), rate_mbps=RATE,
                                    n_flows=N_FLOWS)

    def kb(result):
        return (result.control_load_up_mbps
                + result.control_load_down_mbps) * result.window * 125

    lines = [f"ablation: control-plane strategy at {RATE} Mbps, "
             f"{N_FLOWS} new flows",
             f"{'strategy':<22} {'packet_ins':>10} {'control KB':>10} "
             f"{'rules':>6}",
             f"{'proactive wildcard':<22} {proactive['packet_ins']:>10d} "
             f"{proactive['control_kb']:>10.1f} {proactive['rules']:>6d}",
             f"{'reactive no-buffer':<22} "
             f"{reactive_bare.packet_in_count:>10d} "
             f"{kb(reactive_bare):>10.1f} {N_FLOWS:>6d}",
             f"{'reactive buffer-256':<22} "
             f"{reactive_buffered.packet_in_count:>10d} "
             f"{kb(reactive_buffered):>10.1f} {N_FLOWS:>6d}"]
    emit("ablation_proactive", "\n".join(lines))

    # Proactive: zero requests, constant control cost, but only 2 rules
    # (no per-flow state at all).
    assert proactive["packet_ins"] == 0
    assert proactive["rules"] == 2
    assert proactive["delivered"] == N_FLOWS
    # Reactive keeps per-flow rules; the buffer pays most of its cost.
    assert reactive_buffered.packet_in_count == N_FLOWS
    assert kb(reactive_buffered) < 0.3 * kb(reactive_bare)
    assert proactive["control_kb"] < 0.05 * kb(reactive_buffered)

    result = benchmark.pedantic(_run_proactive, rounds=1, iterations=1)
    assert result["delivered"] == N_FLOWS
