#!/usr/bin/env python3
"""Extension: egress QoS scheduling (the paper's stated future work).

The paper closes by proposing "egress scheduling mechanisms combining
with the ingress buffer mechanism ... to provide QoS guarantee for
different applications".  This example attaches a strict-priority egress
scheduler to the switch's host2-facing port and pushes a saturating mix
of best-effort and expedited (DSCP 46) traffic through an installed
rule, then compares per-class queueing delay with and without the
scheduler.

Run:  python examples/qos_scheduling.py
"""

from __future__ import annotations

from repro.core import PacketGranularityBuffer
from repro.netsim import DuplexLink
from repro.openflow import ControlChannel, FlowEntry, Match, OutputAction
from repro.packets import (EthernetHeader, IPv4Header, PROTO_UDP, Packet,
                           UDPHeader)
from repro.simkit import Simulator, mbps
from repro.switchsim import (CLASS_BEST_EFFORT, CLASS_EXPEDITED, Switch,
                             SwitchConfig, attach_scheduler)

N_PACKETS = 400          # per class
FRAME_LEN = 1000
#: Offered load 2x the line rate, so the egress queue really builds.
SEND_RATE = mbps(200)
LINE_RATE = mbps(100)


def _packet(dscp, tag):
    eth = EthernetHeader("00:00:00:00:00:01", "00:00:00:00:00:02")
    ip = IPv4Header("10.0.0.1", "10.0.0.2", protocol=PROTO_UDP, dscp=dscp)
    l4 = UDPHeader(1000 + tag % 100, 2000)
    return Packet(eth=eth, ip=ip, l4=l4, payload_len=FRAME_LEN - 42)


def run(with_scheduler: bool):
    sim = Simulator()
    channel = ControlChannel(sim, DuplexLink(sim, "ctrl", mbps(100)))
    channel.bind_controller(lambda message: None)
    switch = Switch(sim, SwitchConfig(), PacketGranularityBuffer(256),
                    channel)
    h1 = DuplexLink(sim, "h1", SEND_RATE)      # fat ingress pipe
    h2 = DuplexLink(sim, "h2", LINE_RATE)      # contended egress
    switch.attach_port(1, h1, switch_side_forward=False)
    port2 = switch.attach_port(2, h2, switch_side_forward=False)
    deliveries = {CLASS_EXPEDITED: [], CLASS_BEST_EFFORT: []}

    def on_delivery(packet):
        cls = (CLASS_EXPEDITED if packet.ip.dscp >= 40
               else CLASS_BEST_EFFORT)
        deliveries[cls].append(sim.now - packet.created_at)

    h2.reverse.connect(on_delivery)
    scheduler = attach_scheduler(port2, sim) if with_scheduler else None

    # Pre-install a match-all rule so this is purely a data-path test.
    switch.datapath.table.insert(
        FlowEntry(match=Match(), actions=(OutputAction(2),)), now=0.0)

    gap = FRAME_LEN * 8 / SEND_RATE
    for i in range(N_PACKETS):
        for dscp in (0, 46):
            packet = _packet(dscp, i)
            packet.created_at = i * gap
            sim.schedule_at(i * gap, h1.forward.send, packet,
                            packet.wire_len)
    sim.run(until=10.0)
    switch.shutdown()
    return deliveries, scheduler


def main() -> None:
    print(f"Pushing 2x{N_PACKETS} frames (expedited + best-effort mix) at "
          f"2x the egress line rate...\n")
    for with_scheduler in (False, True):
        label = ("strict-priority scheduler" if with_scheduler
                 else "plain FIFO egress")
        deliveries, scheduler = run(with_scheduler)
        expedited = deliveries[CLASS_EXPEDITED]
        best_effort = deliveries[CLASS_BEST_EFFORT]
        print(f"== {label}")
        print(f"   expedited:   {len(expedited):4d} delivered, "
              f"mean latency {1e3 * sum(expedited) / len(expedited):8.2f} ms")
        print(f"   best-effort: {len(best_effort):4d} delivered, "
              f"mean latency "
              f"{1e3 * sum(best_effort) / len(best_effort):8.2f} ms")
        if scheduler is not None:
            for line in scheduler.summary():
                print(f"   {line}")
        print()

    print("With FIFO, both classes suffer the same overload queueing;")
    print("with strict priority, expedited traffic rides through at near")
    print("line-rate latency while best-effort absorbs the congestion.")


if __name__ == "__main__":
    main()
