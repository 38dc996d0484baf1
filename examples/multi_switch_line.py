#!/usr/bin/env python3
"""Extension: buffer savings compound along multi-switch paths.

The paper's testbed has one switch, but its motivation compounds with
path length — every switch on a route sends its own packet_in for a new
flow.  This example runs the same workload over 1-, 2- and 3-switch
lines (one shared controller, one control channel per switch) and shows
total control-path bytes for no-buffer vs buffer-256 vs flow-granularity.

Run:  python examples/multi_switch_line.py
"""

from __future__ import annotations

from repro import buffer_256, flow_buffer_256, no_buffer
from repro.scenarios import build_scenario, line_scenario
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import batched_multi_packet_flows

RATE_MBPS = 50
N_FLOWS = 20
PACKETS_PER_FLOW = 10


def run(config, n_switches):
    workload = batched_multi_packet_flows(
        mbps(RATE_MBPS), n_flows=N_FLOWS,
        packets_per_flow=PACKETS_PER_FLOW, batch_size=5,
        rng=RandomStreams(1))
    testbed = build_scenario(line_scenario(n_switches), config, workload)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=3.0)
    stats = (testbed.total_packet_ins(),
             testbed.total_control_bytes() / 1000.0,
             len(testbed.hosts[-1].received))
    testbed.shutdown()
    return stats


def main() -> None:
    total_packets = N_FLOWS * PACKETS_PER_FLOW
    print(f"{N_FLOWS} flows x {PACKETS_PER_FLOW} packets at "
          f"{RATE_MBPS} Mbps across line topologies "
          f"(host1 - s1..sN - host2):\n")
    header = (f"{'switches':>8} {'mechanism':<16} {'packet_ins':>10} "
              f"{'control KB':>10} {'delivered':>9}")
    print(header)
    print("-" * len(header))
    for n_switches in (1, 2, 3):
        for config in (no_buffer(), buffer_256(), flow_buffer_256()):
            packet_ins, control_kb, delivered = run(config, n_switches)
            print(f"{n_switches:>8} {config.label:<16} {packet_ins:>10d} "
                  f"{control_kb:>9.1f}K "
                  f"{delivered:>5d}/{total_packets}")
        print()

    print("Reading the table:")
    print(" * Control traffic grows ~linearly with path length for every")
    print("   mechanism - each switch asks the controller separately.")
    print(" * The buffer's absolute savings therefore also grow with the")
    print("   path: at 3 switches, no-buffer ships every miss as a full")
    print("   frame three times.")
    print(" * Flow granularity keeps exactly one request per flow PER")
    print("   SWITCH regardless of the flow's length.")


if __name__ == "__main__":
    main()
