"""The paper's workloads as declarative objects.

* :func:`single_packet_flows` — §IV benefits analysis: 1000 new flows per
  run, one packet each, forged source IPs, constant sending rate.
* :func:`batched_multi_packet_flows` — §V mechanism evaluation: 50 flows of
  20 packets, sent in cross-sequenced batches of 5 flows.
* :func:`tcp_eviction_scenario` — §VI.B: a TCP connection whose rule is
  idle-evicted mid-connection, followed by a data burst on resume.
* :func:`recurring_flows` — a flow-reuse workload for flow-table eviction
  ablations (not from the paper).

A :class:`Workload` is a list of timed packets plus per-flow bookkeeping
(how many packets each flow has), which the metrics layer needs to decide
when a flow has fully arrived (flow forwarding delay).

Like pktgen, which forges a new source IP onto an otherwise fixed frame,
each generator builds every distinct header once per call — one
Ethernet header, and one IPv4 plus one L4 header per flow — and every
packet of a flow wraps that shared, already-validated stack.  Headers
are frozen, and runs only ever touch replay copies of the packets
(:meth:`~repro.packets.Packet.replay_copy`), so sharing is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..packets import (FLAG_ACK, FLAG_SYN, PROTO_TCP, PROTO_UDP,
                       EthernetHeader, FiveTuple, IPv4Header, Packet,
                       TCPHeader, UDPHeader, frame_payload_len)
from ..simkit import ArithmeticTimes, RandomStreams, transmission_delay
from .schedules import constant_gap_times, cross_sequence

#: Default addressing of the Fig. 1 testbed.
HOST1_MAC = "00:00:00:00:00:01"
HOST2_MAC = "00:00:00:00:00:02"
HOST1_IP = "10.0.0.1"
HOST2_IP = "10.0.0.2"
#: Base of the forged source-IP space (pktgen forges sources to create
#: "new" flows — paper §IV).
FORGED_NET = (10, 1)


@dataclass(frozen=True)
class FlowSpec:
    """Static description of one generated flow."""

    flow_id: int
    five_tuple: FiveTuple
    n_packets: int


@dataclass
class Workload:
    """A fully materialized, time-stamped packet train.

    The entries are templates: every run replays a
    :meth:`~repro.packets.Packet.replay_copy` of each, so a workload is
    never stamped and can be replayed any number of times.
    """

    name: str
    entries: List[Tuple[float, Packet]] = field(default_factory=list)
    flows: Dict[int, FlowSpec] = field(default_factory=dict)

    @property
    def n_packets(self) -> int:
        """Total packets in the train."""
        return len(self.entries)

    @property
    def n_flows(self) -> int:
        """Distinct flows in the train."""
        return len(self.flows)

    @property
    def total_bytes(self) -> int:
        """Total on-wire bytes of the train."""
        return sum(p.wire_len for _, p in self.entries)

    @property
    def duration(self) -> float:
        """Time of the last send (seconds from workload start)."""
        return self.entries[-1][0] if self.entries else 0.0

    def schedule_on(self, sim, host, start: float = 0.0):
        """Play the workload through ``host``, its offsets counted from
        the absolute time ``start``; returns the playing
        :class:`~repro.trafficgen.PacketGenerator`.

        Sends a :meth:`~repro.packets.Packet.replay_copy` of each entry,
        so the run stamps its copies and the workload can be replayed.
        """
        from .pktgen import PacketGenerator
        generator = PacketGenerator(sim, host, self)
        generator._play(start)
        return generator


@dataclass
class AggregateWorkload(Workload):
    """A workload whose per-flow packet tails stay lazy.

    Built for the hybrid execution engine's million-flow sweeps:
    ``entries`` holds only each flow's *first* packet (the guaranteed
    table miss that must stay a discrete event), while every flow's
    remaining sends live in ``tails`` as ``(template packet,
    ArithmeticTimes)`` — three floats instead of thousands of packet
    objects.  The hybrid driver materializes tail packets one at a time
    only while the flow's rules are still being installed; once the flow
    opens, the rest advance analytically and are never materialized at
    all.  :meth:`materialize` expands to an equivalent plain
    :class:`Workload` for packet-engine comparison runs.
    """

    #: flow_id -> (template packet, remaining send times).  The template
    #: is the flow's first packet; materialized copies get fresh stamps
    #: and their ``seq_in_flow``.
    tails: Dict[int, Tuple[Packet, ArithmeticTimes]] = field(
        default_factory=dict)
    #: Logical totals over head entries *and* lazy tails.
    logical_packets: int = 0
    logical_duration: float = 0.0

    @property
    def n_packets(self) -> int:
        """Total packets in the train, counting unmaterialized tails."""
        return self.logical_packets

    @property
    def duration(self) -> float:
        """Time of the last (possibly lazy) send."""
        return self.logical_duration

    @property
    def total_bytes(self) -> int:
        """Total on-wire bytes, counting unmaterialized tails."""
        head = sum(p.wire_len for _, p in self.entries)
        return head + sum(template.wire_len * len(times)
                          for template, times in self.tails.values())

    def materialize_tail_packet(self, flow_id: int, index: int) -> Packet:
        """A fresh, sendable copy of tail packet ``index`` of a flow.

        ``index`` counts within the tail (0 = the flow's second packet).
        """
        template, _times = self.tails[flow_id]
        packet = template.fresh_copy()
        packet.seq_in_flow = index + 1
        return packet

    def materialize(self) -> Workload:
        """Expand into an equivalent fully-materialized :class:`Workload`.

        Used by packet-engine comparison runs, so both engines replay
        the *same* logical traffic.  Cost is proportional to the logical
        packet count — only call at sizes the packet engine can carry.
        """
        workload = Workload(name=self.name, flows=dict(self.flows))
        workload.entries = list(self.entries)
        for flow_id, (_template, times) in self.tails.items():
            for index, t in enumerate(times):
                workload.entries.append(
                    (t, self.materialize_tail_packet(flow_id, index)))
        workload.entries.sort(key=lambda entry: entry[0])
        return workload


def flow_train_flows(rate_bps: float, n_flows: int = 1000,
                     packets_per_flow: int = 32,
                     flow_rate: float = 2000.0, frame_len: int = 1000,
                     dst_port: int = 9,
                     rng: Optional[RandomStreams] = None
                     ) -> AggregateWorkload:
    """Scale workload: many UDP flows, each a paced packet train.

    Flows arrive at ``flow_rate`` per second (constant spacing); each
    flow sends ``packets_per_flow`` frames paced at ``rate_bps``.  The
    first packet of each flow is a guaranteed table miss (forged source
    IPs, as in :func:`single_packet_flows`); the tail is pure hit-path
    traffic, kept lazy so flow counts up to 10^6 stay in memory.  The
    schedule is deterministic (``rng`` is accepted for factory-signature
    compatibility and unused), so hybrid- and packet-engine runs replay
    identical traffic.
    """
    if n_flows < 1:
        raise ValueError(f"n_flows must be >= 1, got {n_flows}")
    if packets_per_flow < 1:
        raise ValueError(
            f"packets_per_flow must be >= 1, got {packets_per_flow}")
    if flow_rate <= 0:
        raise ValueError(f"flow_rate must be > 0, got {flow_rate}")
    gap = transmission_delay(frame_len, rate_bps)
    flow_spacing = 1.0 / flow_rate
    workload = AggregateWorkload(
        name=f"flow-train-{n_flows}x{packets_per_flow}")
    eth = EthernetHeader(src_mac=HOST1_MAC, dst_mac=HOST2_MAC)
    for i in range(n_flows):
        start = i * flow_spacing
        stack = _udp_stack(eth, _forged_source_ip(i), 1024 + (i % 50000),
                           dst_port, frame_len)
        packet = Packet(*stack, i, 0)
        workload.entries.append((start, packet))
        if packets_per_flow > 1:
            workload.tails[i] = (packet, ArithmeticTimes(
                start + gap, gap, packets_per_flow - 1))
        workload.flows[i] = FlowSpec(flow_id=i,
                                     five_tuple=packet.five_tuple,
                                     n_packets=packets_per_flow)
    workload.logical_packets = n_flows * packets_per_flow
    workload.logical_duration = ((n_flows - 1) * flow_spacing
                                 + (packets_per_flow - 1) * gap)
    return workload


def _forged_source_ip(index: int) -> str:
    """Distinct source IP for flow ``index`` (pktgen-style forging)."""
    if index < 0 or index >= 65536 * 250:
        raise ValueError(f"flow index out of forging range: {index}")
    a, b = FORGED_NET
    return f"{a}.{b + index // 65536}.{(index // 256) % 256}.{index % 256}"


def _udp_stack(eth: EthernetHeader, src_ip: str, src_port: int,
               dst_port: int, frame_len: int) -> tuple:
    """One UDP flow's validated ``(eth, ip, l4, payload_len)`` to host 2.

    Built once per flow; ``Packet(*stack, flow_id, seq_in_flow)`` wraps
    it for each of the flow's packets.
    """
    ip = IPv4Header(src_ip=src_ip, dst_ip=HOST2_IP, protocol=PROTO_UDP)
    l4 = UDPHeader(src_port=src_port, dst_port=dst_port)
    return eth, ip, l4, frame_payload_len(frame_len, eth, ip, l4)


def single_packet_flows(rate_bps: float, n_flows: int = 1000,
                        frame_len: int = 1000, dst_port: int = 9,
                        rng: Optional[RandomStreams] = None,
                        jitter_fraction: float = 0.02) -> Workload:
    """§IV workload: ``n_flows`` single-packet UDP flows at ``rate_bps``.

    Every packet has a distinct forged source IP, so every packet is the
    first (and only) packet of a new flow and therefore a guaranteed
    table miss.
    """
    if n_flows < 1:
        raise ValueError(f"n_flows must be >= 1, got {n_flows}")
    times = constant_gap_times(n_flows, frame_len, rate_bps,
                               jitter_fraction=jitter_fraction if rng else 0.0,
                               rng=rng)
    workload = Workload(name=f"single-packet-flows-{n_flows}")
    eth = EthernetHeader(src_mac=HOST1_MAC, dst_mac=HOST2_MAC)
    for i in range(n_flows):
        stack = _udp_stack(eth, _forged_source_ip(i), 1024 + (i % 50000),
                           dst_port, frame_len)
        packet = Packet(*stack, i, 0)
        workload.entries.append((times[i], packet))
        workload.flows[i] = FlowSpec(flow_id=i,
                                     five_tuple=packet.five_tuple,
                                     n_packets=1)
    return workload


def batched_multi_packet_flows(rate_bps: float, n_flows: int = 50,
                               packets_per_flow: int = 20,
                               batch_size: int = 5,
                               batch_gap: float = 0.005,
                               frame_len: int = 1000, dst_port: int = 9,
                               rng: Optional[RandomStreams] = None,
                               jitter_fraction: float = 0.02) -> Workload:
    """§V workload: flows sent in cross-sequenced batches.

    ``batch_size`` flows (the paper uses 5) are interleaved packet-by-
    packet at the sending rate; after a batch completes, the next batch
    starts ``batch_gap`` later, until ``n_flows`` flows have been sent.
    """
    if n_flows < 1:
        raise ValueError(f"n_flows must be >= 1, got {n_flows}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if n_flows % batch_size != 0:
        raise ValueError(
            f"n_flows ({n_flows}) must be a multiple of batch_size "
            f"({batch_size})")
    gap = transmission_delay(frame_len, rate_bps)
    workload = Workload(
        name=f"batched-flows-{n_flows}x{packets_per_flow}")
    order = cross_sequence(batch_size, packets_per_flow)
    eth = EthernetHeader(src_mac=HOST1_MAC, dst_mac=HOST2_MAC)
    stacks = [_udp_stack(eth, _forged_source_ip(flow_id), 2000 + flow_id,
                         dst_port, frame_len)
              for flow_id in range(n_flows)]
    batch_start = 0.0
    for batch_index in range(n_flows // batch_size):
        for slot, (flow_in_batch, seq) in enumerate(order):
            flow_id = batch_index * batch_size + flow_in_batch
            t = batch_start + slot * gap
            if rng is not None and jitter_fraction > 0:
                t += rng.uniform("pktgen-jitter",
                                 -jitter_fraction * gap,
                                 jitter_fraction * gap)
                t = max(t, batch_start)
            packet = Packet(*stacks[flow_id], flow_id, seq)
            workload.entries.append((t, packet))
            if flow_id not in workload.flows:
                workload.flows[flow_id] = FlowSpec(
                    flow_id=flow_id, five_tuple=packet.five_tuple,
                    n_packets=packets_per_flow)
        batch_start += len(order) * gap + batch_gap
    workload.entries.sort(key=lambda entry: entry[0])
    return workload


def tcp_eviction_scenario(rate_bps: float, initial_packets: int = 10,
                          idle_gap: float = 1.0, burst_packets: int = 50,
                          frame_len: int = 1000, src_port: int = 45000,
                          dst_port: int = 80) -> Workload:
    """§VI.B scenario: a TCP flow goes idle, its rule is evicted, then a
    large burst resumes on the still-open connection.

    Timeline (one 5-tuple throughout):

    1. SYN + ACK control segments, then ``initial_packets`` data segments
       paced at ``rate_bps`` — the rule is installed on the SYN miss and
       everything after it hits.
    2. ``idle_gap`` seconds of silence.  Choose it longer than the
       installed rule's idle timeout so the switch evicts the rule while
       the connection stays open.
    3. ``burst_packets`` data segments paced at ``rate_bps`` — all arrive
       on a missing rule, which is exactly where the paper argues the
       buffer helps TCP flows too.
    """
    if initial_packets < 0 or burst_packets < 1:
        raise ValueError("need a non-negative setup and a non-empty burst")
    if idle_gap <= 0:
        raise ValueError("idle_gap must be positive")
    workload = Workload(name="tcp-eviction")
    gap = transmission_delay(frame_len, rate_bps)
    eth = EthernetHeader(src_mac=HOST1_MAC, dst_mac=HOST2_MAC)
    ip = IPv4Header(src_ip=HOST1_IP, dst_ip=HOST2_IP, protocol=PROTO_TCP)
    syn = TCPHeader(src_port=src_port, dst_port=dst_port, flags=FLAG_SYN)
    #: The final handshake ACK and every data segment carry this header.
    ack = TCPHeader(src_port=src_port, dst_port=dst_port, flags=FLAG_ACK)
    data_len = frame_payload_len(frame_len, eth, ip, ack)
    seq = 0
    t = 0.0

    def add(l4: TCPHeader, payload_len: int, at: float) -> None:
        nonlocal seq
        workload.entries.append(
            (at, Packet(eth, ip, l4, payload_len, 0, seq)))
        seq += 1

    # Handshake (client side): SYN, then the final ACK.  These are
    # minimum-size control segments, as the paper's §VI.B describes.
    add(syn, 0, t)
    t += gap
    add(ack, 0, t)
    t += gap
    for _ in range(initial_packets):
        add(ack, data_len, t)
        t += gap
    #: The data burst resumes after the idle gap.
    t += idle_gap
    burst_start = t
    for _ in range(burst_packets):
        add(ack, data_len, t)
        t += gap

    five_tuple = workload.entries[0][1].five_tuple
    workload.flows[0] = FlowSpec(flow_id=0, five_tuple=five_tuple,
                                 n_packets=seq)
    #: Stash phase boundaries for analysis (duck-typed attribute).
    workload.burst_start = burst_start  # type: ignore[attr-defined]
    return workload


def recurring_flows(rate_bps: float, n_flows: int = 20,
                    rounds: int = 5, frame_len: int = 1000,
                    dst_port: int = 9) -> Workload:
    """A flow-reuse workload: the same ``n_flows`` recur ``rounds`` times.

    Not a paper workload — used by the flow-table eviction ablation: with
    a table smaller than ``n_flows``, LRU/FIFO choices change how many
    recurrences hit.  Flows are revisited round-robin, so each flow sends
    one packet per round.
    """
    if n_flows < 1 or rounds < 1:
        raise ValueError("need at least one flow and one round")
    workload = Workload(name=f"recurring-{n_flows}x{rounds}")
    gap = transmission_delay(frame_len, rate_bps)
    eth = EthernetHeader(src_mac=HOST1_MAC, dst_mac=HOST2_MAC)
    stacks = [_udp_stack(eth, _forged_source_ip(flow_id), 3000 + flow_id,
                         dst_port, frame_len)
              for flow_id in range(n_flows)]
    slot = 0
    for round_index in range(rounds):
        for flow_id in range(n_flows):
            packet = Packet(*stacks[flow_id], flow_id, round_index)
            workload.entries.append((slot * gap, packet))
            slot += 1
            if flow_id not in workload.flows:
                workload.flows[flow_id] = FlowSpec(
                    flow_id=flow_id, five_tuple=packet.five_tuple,
                    n_packets=rounds)
    return workload


def mixed_tcp_udp(rate_bps: float, n_tcp_flows: int = 10,
                  packets_per_tcp: int = 20, n_udp_flows: int = 100,
                  frame_len: int = 1000,
                  rng: Optional[RandomStreams] = None) -> Workload:
    """§VI.A mix: a few long TCP connections among many small UDP flows.

    Mirrors the traffic mix the paper cites ([27]): TCP dominates bytes
    (few flows, many packets each) while UDP dominates *flow count* (many
    single-packet flows, each a guaranteed miss).  TCP flows open with a
    SYN, then stream data; their packets are spread across the run so the
    installed rules stay warm.  The aggregate is paced at ``rate_bps``.
    """
    if n_tcp_flows < 0 or n_udp_flows < 1:
        raise ValueError("need non-negative TCP and at least one UDP flow")
    if packets_per_tcp < 2:
        raise ValueError("TCP flows need at least SYN + one data packet")
    workload = Workload(name="mixed-tcp-udp")
    gap = transmission_delay(frame_len, rate_bps)
    total_packets = n_tcp_flows * packets_per_tcp + n_udp_flows

    # Interleave: spread each TCP flow's packets evenly across all send
    # slots; fill the remaining slots with UDP flows.
    slots: List[Optional[tuple]] = [None] * total_packets
    for tcp_index in range(n_tcp_flows):
        stride = total_packets // packets_per_tcp
        offset = (tcp_index * stride) // max(n_tcp_flows, 1)
        seq = 0
        for packet_index in range(packets_per_tcp):
            slot = (offset + packet_index * stride) % total_packets
            while slots[slot] is not None:
                slot = (slot + 1) % total_packets
            slots[slot] = ("tcp", tcp_index, seq)
            seq += 1
    udp_index = 0
    for slot in range(total_packets):
        if slots[slot] is None:
            slots[slot] = ("udp", udp_index, 0)
            udp_index += 1

    eth = EthernetHeader(src_mac=HOST1_MAC, dst_mac=HOST2_MAC)
    tcp_ip = IPv4Header(src_ip=HOST1_IP, dst_ip=HOST2_IP, protocol=PROTO_TCP)
    #: Per TCP flow: its SYN header, its data header, the data payload.
    tcp_stacks = []
    for index in range(n_tcp_flows):
        syn = TCPHeader(src_port=40000 + index, dst_port=80, flags=FLAG_SYN)
        data = TCPHeader(src_port=40000 + index, dst_port=80,
                         flags=FLAG_ACK)
        tcp_stacks.append(
            (syn, data, frame_payload_len(frame_len, eth, tcp_ip, data)))
    tcp_seq_seen: Dict[int, int] = {}
    for slot, (kind, index, seq) in enumerate(slots):
        t = slot * gap
        if rng is not None:
            t = max(0.0, t + rng.uniform("pktgen-jitter", -0.02 * gap,
                                         0.02 * gap))
        if kind == "tcp":
            flow_id = index
            syn, data, data_len = tcp_stacks[index]
            if seq == 0:
                packet = Packet(eth, tcp_ip, syn, 0, flow_id, seq)
            else:
                packet = Packet(eth, tcp_ip, data, data_len, flow_id, seq)
            tcp_seq_seen[flow_id] = seq
            if flow_id not in workload.flows:
                workload.flows[flow_id] = FlowSpec(
                    flow_id=flow_id, five_tuple=packet.five_tuple,
                    n_packets=packets_per_tcp)
        else:
            flow_id = n_tcp_flows + index
            stack = _udp_stack(eth, _forged_source_ip(index),
                               5000 + index % 1000, 9, frame_len)
            packet = Packet(*stack, flow_id, 0)
            workload.flows[flow_id] = FlowSpec(
                flow_id=flow_id, five_tuple=packet.five_tuple, n_packets=1)
        workload.entries.append((t, packet))
    workload.entries.sort(key=lambda entry: entry[0])
    return workload
