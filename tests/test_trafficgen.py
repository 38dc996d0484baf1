"""Tests for schedules, workloads and the pktgen driver."""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import Host, Link
from repro.packets import (FLAG_ACK, FLAG_SYN, EthernetHeader, IPv4Header,
                           UDPHeader, tcp_control_packet, tcp_packet,
                           udp_packet)
from repro.simkit import (ArithmeticTimes, RandomStreams, Simulator, mbps,
                          transmission_delay)
from repro.trafficgen import (HOST1_IP, HOST1_MAC, HOST2_IP, HOST2_MAC,
                              AggregateWorkload, FlowSpec, PacketGenerator,
                              Workload, batched_multi_packet_flows,
                              constant_gap_times, cross_sequence,
                              flow_train_flows, mixed_tcp_udp, poisson_times,
                              recurring_flows, single_packet_flows,
                              tcp_eviction_scenario)
from repro.trafficgen.workloads import _forged_source_ip


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def test_constant_gap_times_paced_at_rate():
    times = constant_gap_times(4, frame_len=1000, rate_bps=mbps(100))
    gap = transmission_delay(1000, mbps(100))
    assert times == pytest.approx([0.0, gap, 2 * gap, 3 * gap])


def test_constant_gap_jitter_requires_rng():
    with pytest.raises(ValueError):
        constant_gap_times(2, 1000, mbps(100), jitter_fraction=0.1)


def test_constant_gap_jitter_bounded():
    rng = RandomStreams(1)
    gap = transmission_delay(1000, mbps(100))
    times = constant_gap_times(100, 1000, mbps(100), jitter_fraction=0.1,
                               rng=rng)
    for i, t in enumerate(times):
        assert abs(t - i * gap) <= 0.1 * gap + 1e-12
        assert t >= 0.0


def test_poisson_times_monotone():
    rng = RandomStreams(2)
    times = poisson_times(50, rate_pps=1000, rng=rng)
    assert all(b > a for a, b in zip(times, times[1:]))


def test_cross_sequence_order():
    order = cross_sequence(3, 2)
    assert order == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]


def test_cross_sequence_validation():
    with pytest.raises(ValueError):
        cross_sequence(0, 1)
    with pytest.raises(ValueError):
        cross_sequence(1, 0)


# ---------------------------------------------------------------------------
# Workload A (single-packet flows)
# ---------------------------------------------------------------------------

def test_single_packet_flows_structure():
    workload = single_packet_flows(mbps(50), n_flows=100)
    assert workload.n_packets == 100
    assert workload.n_flows == 100
    assert all(spec.n_packets == 1 for spec in workload.flows.values())


def test_single_packet_flows_all_sources_distinct():
    workload = single_packet_flows(mbps(50), n_flows=300)
    sources = {p.ip.src_ip for _, p in workload.entries}
    assert len(sources) == 300


def test_single_packet_flows_frame_size():
    workload = single_packet_flows(mbps(50), n_flows=10, frame_len=1000)
    assert all(p.wire_len == 1000 for _, p in workload.entries)
    assert workload.total_bytes == 10_000


def test_single_packet_flows_five_tuples_match_specs():
    workload = single_packet_flows(mbps(50), n_flows=20)
    for _, packet in workload.entries:
        spec = workload.flows[packet.flow_id]
        assert packet.five_tuple == spec.five_tuple


# ---------------------------------------------------------------------------
# Workload B (batched flows)
# ---------------------------------------------------------------------------

def test_batched_flows_structure():
    workload = batched_multi_packet_flows(mbps(50), n_flows=10,
                                          packets_per_flow=4, batch_size=5)
    assert workload.n_flows == 10
    assert workload.n_packets == 40
    assert all(spec.n_packets == 4 for spec in workload.flows.values())


def test_batched_flows_cross_sequencing_within_batch():
    workload = batched_multi_packet_flows(mbps(50), n_flows=5,
                                          packets_per_flow=3, batch_size=5,
                                          rng=None, jitter_fraction=0.0)
    first_five = [p.flow_id for _, p in workload.entries[:5]]
    assert first_five == [0, 1, 2, 3, 4]
    seqs = [p.seq_in_flow for _, p in workload.entries]
    assert seqs == [0] * 5 + [1] * 5 + [2] * 5


def test_batched_flows_batch_gap_separates_batches():
    gap = 0.5
    workload = batched_multi_packet_flows(mbps(100), n_flows=10,
                                          packets_per_flow=2, batch_size=5,
                                          batch_gap=gap)
    batch1_end = max(t for t, p in workload.entries if p.flow_id < 5)
    batch2_start = min(t for t, p in workload.entries if p.flow_id >= 5)
    assert batch2_start - batch1_end >= gap * 0.99


def test_batched_flows_entries_sorted():
    rng = RandomStreams(3)
    workload = batched_multi_packet_flows(mbps(95), rng=rng)
    times = [t for t, _ in workload.entries]
    assert times == sorted(times)


def test_batched_flows_validation():
    with pytest.raises(ValueError):
        batched_multi_packet_flows(mbps(50), n_flows=7, batch_size=5)
    with pytest.raises(ValueError, match="batch_size"):
        batched_multi_packet_flows(mbps(50), n_flows=10, batch_size=0)
    with pytest.raises(ValueError, match="batch_size"):
        batched_multi_packet_flows(mbps(50), n_flows=10, batch_size=-5)
    with pytest.raises(ValueError, match="n_flows"):
        batched_multi_packet_flows(mbps(50), n_flows=0)
    with pytest.raises(ValueError, match="n_flows"):
        batched_multi_packet_flows(mbps(50), n_flows=-5, batch_size=5)


@given(st.integers(1, 4), st.integers(1, 6))
def test_batched_flows_packet_accounting(batches, packets_per_flow):
    workload = batched_multi_packet_flows(mbps(50), n_flows=batches * 5,
                                          packets_per_flow=packets_per_flow)
    assert workload.n_packets == batches * 5 * packets_per_flow
    per_flow = {}
    for _, packet in workload.entries:
        per_flow[packet.flow_id] = per_flow.get(packet.flow_id, 0) + 1
    assert all(count == packets_per_flow for count in per_flow.values())


# ---------------------------------------------------------------------------
# Reference model: one udp_packet/tcp_packet call per entry
# ---------------------------------------------------------------------------
#
# The generators build each distinct header once per call and wrap every
# packet of a flow around it.  These references keep the per-packet
# construction they replaced: every entry built from scratch through the
# public factories, in the same order, with the same send-time arithmetic.

def _ref_single_packet_flows(rate_bps, n_flows=1000, frame_len=1000,
                             dst_port=9, rng=None, jitter_fraction=0.02):
    if n_flows < 1:
        raise ValueError(f"n_flows must be >= 1, got {n_flows}")
    times = constant_gap_times(n_flows, frame_len, rate_bps,
                               jitter_fraction=jitter_fraction if rng else 0.0,
                               rng=rng)
    workload = Workload(name=f"single-packet-flows-{n_flows}")
    for i in range(n_flows):
        packet = udp_packet(HOST1_MAC, HOST2_MAC, _forged_source_ip(i),
                            HOST2_IP, 1024 + (i % 50000), dst_port,
                            frame_len=frame_len, flow_id=i, seq_in_flow=0)
        workload.entries.append((times[i], packet))
        workload.flows[i] = FlowSpec(i, packet.five_tuple, 1)
    return workload


def _ref_batched_multi_packet_flows(rate_bps, n_flows=50,
                                    packets_per_flow=20, batch_size=5,
                                    batch_gap=0.005, frame_len=1000,
                                    dst_port=9, rng=None,
                                    jitter_fraction=0.02):
    if n_flows < 1 or batch_size < 1 or n_flows % batch_size != 0:
        raise ValueError("bad flow or batch count")
    gap = transmission_delay(frame_len, rate_bps)
    workload = Workload(name=f"batched-flows-{n_flows}x{packets_per_flow}")
    order = cross_sequence(batch_size, packets_per_flow)
    batch_start = 0.0
    for batch_index in range(n_flows // batch_size):
        for slot, (flow_in_batch, seq) in enumerate(order):
            flow_id = batch_index * batch_size + flow_in_batch
            t = batch_start + slot * gap
            if rng is not None and jitter_fraction > 0:
                t += rng.uniform("pktgen-jitter", -jitter_fraction * gap,
                                 jitter_fraction * gap)
                t = max(t, batch_start)
            packet = udp_packet(HOST1_MAC, HOST2_MAC,
                                _forged_source_ip(flow_id), HOST2_IP,
                                2000 + flow_id, dst_port,
                                frame_len=frame_len, flow_id=flow_id,
                                seq_in_flow=seq)
            workload.entries.append((t, packet))
            if flow_id not in workload.flows:
                workload.flows[flow_id] = FlowSpec(
                    flow_id, packet.five_tuple, packets_per_flow)
        batch_start += len(order) * gap + batch_gap
    workload.entries.sort(key=lambda entry: entry[0])
    return workload


def _ref_flow_train_flows(rate_bps, n_flows=1000, packets_per_flow=32,
                          flow_rate=2000.0, frame_len=1000, dst_port=9):
    gap = transmission_delay(frame_len, rate_bps)
    flow_spacing = 1.0 / flow_rate
    workload = AggregateWorkload(
        name=f"flow-train-{n_flows}x{packets_per_flow}")
    for i in range(n_flows):
        start = i * flow_spacing
        packet = udp_packet(HOST1_MAC, HOST2_MAC, _forged_source_ip(i),
                            HOST2_IP, 1024 + (i % 50000), dst_port,
                            frame_len=frame_len, flow_id=i, seq_in_flow=0)
        workload.entries.append((start, packet))
        if packets_per_flow > 1:
            workload.tails[i] = (packet, ArithmeticTimes(
                start + gap, gap, packets_per_flow - 1))
        workload.flows[i] = FlowSpec(i, packet.five_tuple, packets_per_flow)
    workload.logical_packets = n_flows * packets_per_flow
    workload.logical_duration = ((n_flows - 1) * flow_spacing
                                 + (packets_per_flow - 1) * gap)
    return workload


def _ref_tcp_eviction_scenario(rate_bps, initial_packets=10, idle_gap=1.0,
                               burst_packets=50, frame_len=1000,
                               src_port=45000, dst_port=80):
    workload = Workload(name="tcp-eviction")
    gap = transmission_delay(frame_len, rate_bps)
    ends = (HOST1_MAC, HOST2_MAC, HOST1_IP, HOST2_IP, src_port, dst_port)
    t = 0.0
    sends = [(tcp_control_packet(*ends, flags=FLAG_SYN), t)]
    t += gap
    sends.append((tcp_control_packet(*ends, flags=FLAG_ACK), t))
    t += gap
    for _ in range(initial_packets):
        sends.append((tcp_packet(*ends, flags=FLAG_ACK,
                                 frame_len=frame_len), t))
        t += gap
    t += idle_gap
    burst_start = t
    for _ in range(burst_packets):
        sends.append((tcp_packet(*ends, flags=FLAG_ACK,
                                 frame_len=frame_len), t))
        t += gap
    for seq, (packet, at) in enumerate(sends):
        packet.flow_id = 0
        packet.seq_in_flow = seq
        workload.entries.append((at, packet))
    workload.flows[0] = FlowSpec(0, workload.entries[0][1].five_tuple,
                                 len(sends))
    workload.burst_start = burst_start
    return workload


def _ref_recurring_flows(rate_bps, n_flows=20, rounds=5, frame_len=1000,
                         dst_port=9):
    workload = Workload(name=f"recurring-{n_flows}x{rounds}")
    gap = transmission_delay(frame_len, rate_bps)
    slot = 0
    for round_index in range(rounds):
        for flow_id in range(n_flows):
            packet = udp_packet(HOST1_MAC, HOST2_MAC,
                                _forged_source_ip(flow_id), HOST2_IP,
                                3000 + flow_id, dst_port,
                                frame_len=frame_len, flow_id=flow_id,
                                seq_in_flow=round_index)
            workload.entries.append((slot * gap, packet))
            slot += 1
            if flow_id not in workload.flows:
                workload.flows[flow_id] = FlowSpec(
                    flow_id, packet.five_tuple, rounds)
    return workload


def _ref_mixed_tcp_udp(rate_bps, n_tcp_flows=10, packets_per_tcp=20,
                       n_udp_flows=100, frame_len=1000, rng=None):
    workload = Workload(name="mixed-tcp-udp")
    gap = transmission_delay(frame_len, rate_bps)
    total_packets = n_tcp_flows * packets_per_tcp + n_udp_flows
    slots: List[Optional[tuple]] = [None] * total_packets
    for tcp_index in range(n_tcp_flows):
        stride = total_packets // packets_per_tcp
        offset = (tcp_index * stride) // max(n_tcp_flows, 1)
        for seq in range(packets_per_tcp):
            slot = (offset + seq * stride) % total_packets
            while slots[slot] is not None:
                slot = (slot + 1) % total_packets
            slots[slot] = ("tcp", tcp_index, seq)
    udp_index = 0
    for slot in range(total_packets):
        if slots[slot] is None:
            slots[slot] = ("udp", udp_index, 0)
            udp_index += 1
    for slot, (kind, index, seq) in enumerate(slots):
        t = slot * gap
        if rng is not None:
            t = max(0.0, t + rng.uniform("pktgen-jitter", -0.02 * gap,
                                         0.02 * gap))
        if kind == "tcp":
            ends = (HOST1_MAC, HOST2_MAC, HOST1_IP, HOST2_IP,
                    40000 + index, 80)
            if seq == 0:
                packet = tcp_control_packet(*ends, flags=FLAG_SYN,
                                            flow_id=index, seq_in_flow=0)
            else:
                packet = tcp_packet(*ends, flags=FLAG_ACK,
                                    frame_len=frame_len, flow_id=index,
                                    seq_in_flow=seq)
            workload.flows.setdefault(index, FlowSpec(
                index, packet.five_tuple, packets_per_tcp))
        else:
            flow_id = n_tcp_flows + index
            packet = udp_packet(HOST1_MAC, HOST2_MAC,
                                _forged_source_ip(index), HOST2_IP,
                                5000 + index % 1000, 9,
                                frame_len=frame_len, flow_id=flow_id,
                                seq_in_flow=0)
            workload.flows[flow_id] = FlowSpec(flow_id, packet.five_tuple, 1)
        workload.entries.append((t, packet))
    workload.entries.sort(key=lambda entry: entry[0])
    return workload


def _shape(workload):
    """Everything a run reads from a workload, uids as construction ranks.

    Send times are compared as ``float.hex`` (bit for bit), dicts in
    insertion order, and uids by rank: both sides draw from the one
    process-wide counter, so the absolute values differ but their
    construction order must not.
    """
    packets = [packet for _, packet in workload.entries]
    by_uid = sorted(range(len(packets)), key=lambda k: packets[k].uid)
    tails = [(flow_id, template.uid == workload.entries[flow_id][1].uid,
              _packet_shape(template), times.start.hex(), times.gap.hex(),
              times.count)
             for flow_id, (template, times)
             in getattr(workload, "tails", {}).items()]
    return {
        "name": workload.name,
        "entries": [(t.hex(), _packet_shape(p))
                    for t, p in workload.entries],
        "uid_order": by_uid,
        "uids_distinct": len({p.uid for p in packets}) == len(packets),
        "flows": list(workload.flows.items()),
        "tails": tails,
        "n_packets": workload.n_packets,
        "duration": workload.duration.hex(),
        "total_bytes": workload.total_bytes,
        "burst_start": getattr(workload, "burst_start", None),
    }


def _packet_shape(packet):
    return (packet.eth, packet.ip, packet.l4, packet.payload_len,
            packet.flow_id, packet.seq_in_flow, packet.wire_len,
            packet.five_tuple, packet.created_at, packet.switch_in_at,
            packet.switch_out_at)


def _outcome(generator, *args, **kwargs):
    """The workload's shape, or the error it raised."""
    try:
        return _shape(generator(*args, **kwargs))
    except ValueError:
        return ValueError


def _one_object_per_header(workload) -> bool:
    """Each distinct header value is carried by exactly one object."""
    packets = [packet for _, packet in workload.entries]
    for layer in ("eth", "ip", "l4"):
        headers = [getattr(packet, layer) for packet in packets]
        if len({id(h) for h in headers}) != len(set(headers)):
            return False
    return True


_RATES = st.floats(min_value=1e6, max_value=1e9, allow_nan=False)
#: Straddles the UDP (42 B) and TCP (54 B) header stacks, so some draws
#: must be refused by both sides.
_FRAME_LENS = st.one_of(st.integers(30, 70), st.integers(71, 1514))


@settings(max_examples=60, deadline=None)
@given(rate=_RATES, seed=st.integers(0, 2**32 - 1), n_flows=st.integers(1, 40),
       frame_len=_FRAME_LENS, jitter=st.sampled_from([0.0, 0.02, 0.3]))
def test_single_packet_flows_match_reference(rate, seed, n_flows, frame_len,
                                             jitter):
    def run(generator, rng):
        return _outcome(generator, rate, n_flows=n_flows,
                        frame_len=frame_len, dst_port=seed % 65536,
                        rng=rng, jitter_fraction=jitter)
    for make_rng in (lambda: None, lambda: RandomStreams(seed)):
        assert run(single_packet_flows, make_rng()) \
            == run(_ref_single_packet_flows, make_rng())


@settings(max_examples=60, deadline=None)
@given(rate=_RATES, seed=st.integers(0, 2**32 - 1),
       batches=st.integers(1, 4), batch_size=st.integers(1, 6),
       packets_per_flow=st.integers(1, 6), frame_len=_FRAME_LENS,
       batch_gap=st.sampled_from([0.0, 0.005, 0.1]))
def test_batched_flows_match_reference(rate, seed, batches, batch_size,
                                       packets_per_flow, frame_len,
                                       batch_gap):
    def run(generator):
        return _outcome(generator, rate, n_flows=batches * batch_size,
                        packets_per_flow=packets_per_flow,
                        batch_size=batch_size, batch_gap=batch_gap,
                        frame_len=frame_len, rng=RandomStreams(seed))
    assert run(batched_multi_packet_flows) \
        == run(_ref_batched_multi_packet_flows)


@settings(max_examples=40, deadline=None)
@given(rate=_RATES, n_flows=st.integers(1, 30),
       packets_per_flow=st.integers(1, 8),
       flow_rate=st.floats(min_value=10.0, max_value=1e5),
       frame_len=_FRAME_LENS)
def test_flow_train_flows_match_reference(rate, n_flows, packets_per_flow,
                                          flow_rate, frame_len):
    def run(generator):
        return _outcome(generator, rate, n_flows=n_flows,
                        packets_per_flow=packets_per_flow,
                        flow_rate=flow_rate, frame_len=frame_len)
    assert run(flow_train_flows) == run(_ref_flow_train_flows)


@settings(max_examples=40, deadline=None)
@given(rate=_RATES, initial=st.integers(0, 8), burst=st.integers(1, 8),
       idle_gap=st.floats(min_value=1e-3, max_value=5.0),
       frame_len=_FRAME_LENS)
def test_tcp_eviction_matches_reference(rate, initial, burst, idle_gap,
                                        frame_len):
    def run(generator):
        return _outcome(generator, rate, initial_packets=initial,
                        idle_gap=idle_gap, burst_packets=burst,
                        frame_len=frame_len)
    assert run(tcp_eviction_scenario) == run(_ref_tcp_eviction_scenario)


@settings(max_examples=40, deadline=None)
@given(rate=_RATES, n_flows=st.integers(1, 20), rounds=st.integers(1, 5),
       frame_len=_FRAME_LENS)
def test_recurring_flows_match_reference(rate, n_flows, rounds, frame_len):
    def run(generator):
        return _outcome(generator, rate, n_flows=n_flows, rounds=rounds,
                        frame_len=frame_len)
    assert run(recurring_flows) == run(_ref_recurring_flows)


@settings(max_examples=40, deadline=None)
@given(rate=_RATES, seed=st.integers(0, 2**32 - 1),
       n_tcp=st.integers(0, 4), packets_per_tcp=st.integers(2, 6),
       n_udp=st.integers(1, 30), frame_len=_FRAME_LENS,
       jitter=st.booleans())
def test_mixed_tcp_udp_matches_reference(rate, seed, n_tcp, packets_per_tcp,
                                         n_udp, frame_len, jitter):
    def run(generator):
        return _outcome(generator, rate, n_tcp_flows=n_tcp,
                        packets_per_tcp=packets_per_tcp, n_udp_flows=n_udp,
                        frame_len=frame_len,
                        rng=RandomStreams(seed) if jitter else None)
    assert run(mixed_tcp_udp) == run(_ref_mixed_tcp_udp)


@pytest.mark.parametrize("workload", [
    single_packet_flows(mbps(40), n_flows=60, rng=RandomStreams(1)),
    batched_multi_packet_flows(mbps(40), n_flows=10, packets_per_flow=4,
                               rng=RandomStreams(2)),
    flow_train_flows(mbps(40), n_flows=20, packets_per_flow=4),
    tcp_eviction_scenario(mbps(40), initial_packets=4, burst_packets=6),
    recurring_flows(mbps(40), n_flows=8, rounds=3),
    mixed_tcp_udp(mbps(40), n_tcp_flows=3, packets_per_tcp=5,
                  n_udp_flows=20),
], ids=lambda workload: workload.name)
def test_generators_build_each_distinct_header_once(workload):
    assert _one_object_per_header(workload)


def _header_objects(workload, layer: str) -> Dict[type, int]:
    """Distinct header objects per class, counted by ``id``."""
    objects = {id(getattr(packet, layer)): getattr(packet, layer)
               for _, packet in workload.entries}
    counts: Dict[type, int] = {}
    for header in objects.values():
        counts[type(header)] = counts.get(type(header), 0) + 1
    return counts


def test_batched_workload_holds_one_stack_per_flow():
    workload = batched_multi_packet_flows(mbps(50), n_flows=50,
                                          packets_per_flow=20,
                                          rng=RandomStreams(5))
    assert workload.n_packets == 1000
    assert _header_objects(workload, "eth") == {EthernetHeader: 1}
    assert _header_objects(workload, "ip") == {IPv4Header: 50}
    assert _header_objects(workload, "l4") == {UDPHeader: 50}


def test_single_packet_workload_holds_one_ethernet_header():
    workload = single_packet_flows(mbps(50), n_flows=150,
                                   rng=RandomStreams(6))
    assert _header_objects(workload, "eth") == {EthernetHeader: 1}
    assert _header_objects(workload, "ip") == {IPv4Header: 150}


# ---------------------------------------------------------------------------
# PacketGenerator
# ---------------------------------------------------------------------------

def _wired_host(sim):
    host = Host(sim, "h", "00:00:00:00:00:01", "10.0.0.1")
    link = Link(sim, "l", mbps(100))
    sent = []
    link.connect(sent.append)
    host.attach(link)
    return host, sent


def test_pktgen_replays_whole_workload(sim):
    host, sent = _wired_host(sim)
    workload = single_packet_flows(mbps(100), n_flows=25)
    generator = PacketGenerator(sim, host, workload)
    generator.start()
    sim.run()
    assert generator.finished
    assert len(sent) == 25


def test_pktgen_fresh_packets_per_run():
    """Stamps from one repetition must not leak into the next."""
    workload = single_packet_flows(mbps(100), n_flows=5)
    for _ in range(2):
        sim = Simulator()
        host, sent = _wired_host(sim)
        generator = PacketGenerator(sim, host, workload)
        generator.start()
        sim.run()
        assert all(p.created_at is not None for p in sent)
        assert all(p.switch_in_at is None for p in sent)
    # The template packets themselves were never stamped.
    assert all(p.created_at is None for _, p in workload.entries)


def test_schedule_on_stamps_replay_copies_not_templates():
    """Each replay stamps its own copies, at its own start."""
    workload = single_packet_flows(mbps(100), n_flows=5,
                                   rng=RandomStreams(70))
    for start in (0.25, 0.5):
        sim = Simulator()
        host, sent = _wired_host(sim)
        workload.schedule_on(sim, host, start=start)
        sim.run()
        assert {p.uid: p.created_at for p in sent} == {
            p.uid: start + offset for offset, p in workload.entries}
        assert all(p.created_at is None for _, p in workload.entries)


def test_pktgen_start_offset(sim):
    host, sent = _wired_host(sim)
    workload = single_packet_flows(mbps(100), n_flows=1)
    PacketGenerator(sim, host, workload).start(at=0.5)
    sim.run()
    assert sent[0].created_at == pytest.approx(0.5)


def test_pktgen_stop_cancels_remaining(sim):
    host, sent = _wired_host(sim)
    workload = single_packet_flows(mbps(100), n_flows=100)
    generator = PacketGenerator(sim, host, workload)
    generator.start()
    sim.schedule(workload.duration / 2, generator.stop)
    sim.run()
    assert 0 < generator.packets_sent < 100
    assert not generator.finished
