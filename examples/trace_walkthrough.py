#!/usr/bin/env python3
"""Walk through the life of one miss-match packet, event by event.

Subscribes to every observable the switch and controller publish and
prints a timeline for a single new flow under the flow-granularity
buffer: ingress, table miss, buffering, the one packet_in, the
controller's decision, rule installation, buffered release, egress.
A compact way to see Algorithms 1 and 2 actually execute.

Run:  python examples/trace_walkthrough.py
"""

from __future__ import annotations

from repro import flow_buffer_256
from repro.experiments import build_testbed
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import batched_multi_packet_flows


def main() -> None:
    # One flow of 4 packets sent back-to-back at 80 Mbps: the later
    # packets arrive before the rule installs, so they buffer silently.
    workload = batched_multi_packet_flows(mbps(80), n_flows=5,
                                          packets_per_flow=4, batch_size=5,
                                          rng=RandomStreams(7))
    # Keep only flow 0's packets for a readable timeline.
    workload.entries = [(t, p) for t, p in workload.entries
                        if p.flow_id == 0]
    workload.flows = {0: workload.flows[0]}
    testbed = build_testbed(flow_buffer_256(), workload)

    timeline = []

    def log(kind):
        def handler(time, *args):
            timeline.append((time, kind, args))
        return handler

    events = testbed.switches[0].events
    events.on("packet_ingress", log("packet enters switch"))
    events.on("table_miss", log("flow-table MISS"))
    events.on("buffer_stored", log("packet buffered"))
    events.on("packet_in_sent", log("packet_in -> controller"))
    events.on("reply_arrived", log("reply arrives at switch"))
    events.on("flow_installed", log("rule installed"))
    events.on("buffer_released", log("buffered packet released"))
    events.on("packet_egress", log("packet leaves switch"))
    testbed.controller.events.on("packet_in_received",
                                 log("controller receives request"))
    testbed.controller.events.on("replies_sent",
                                 log("controller sends flow_mod+packet_out"))

    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.01)
    testbed.sim.run(until=0.2)

    print("Timeline of one 4-packet flow under the flow-granularity "
          "buffer:\n")
    start = timeline[0][0] if timeline else 0.0
    for time, kind, args in timeline:
        detail = ""
        if kind in ("packet enters switch", "packet buffered",
                    "buffered packet released", "packet leaves switch"):
            packet = args[0]
            if getattr(packet, "seq_in_flow", None) is not None:
                detail = f"(packet #{packet.seq_in_flow})"
        if kind == "packet_in -> controller":
            message = args[0]
            detail = (f"(buffer_id={message.buffer_id}, "
                      f"{message.data_len}B of {message.total_len}B)")
        print(f"  +{(time - start) * 1e3:7.3f} ms  {kind:<34} {detail}")

    agent = testbed.switches[0].agent
    print(f"\nTotals: {agent.packet_ins_sent.value} packet_in for "
          f"{testbed.hosts[-1].packets_received} delivered packets "
          f"(Algorithm 1 buffered the rest; Algorithm 2 released them "
          f"together).")
    testbed.shutdown()


if __name__ == "__main__":
    main()
