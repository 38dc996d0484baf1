"""Tests for pcap export."""

from __future__ import annotations

import io
import struct

from repro.core import buffer_256
from repro.experiments import build_testbed
from repro.metrics import PcapWriter
from repro.netsim import Link
from repro.packets import decode_packet, udp_packet
from repro.simkit import RandomStreams, Simulator, mbps
from repro.trafficgen import single_packet_flows


def _read_pcap(data: bytes):
    magic, major, minor, _tz, _sig, snaplen, linktype = struct.unpack(
        "<IHHiIII", data[:24])
    assert magic == 0xA1B2C3D4
    assert (major, minor) == (2, 4)
    assert linktype == 1
    offset = 24
    records = []
    while offset < len(data):
        sec, usec, caplen, origlen = struct.unpack(
            "<IIII", data[offset:offset + 16])
        assert caplen == origlen
        frame = data[offset + 16:offset + 16 + caplen]
        records.append((sec + usec / 1e6, frame))
        offset += 16 + caplen
    return records


def test_pcap_round_trip_single_link():
    sim = Simulator()
    link = Link(sim, "l", mbps(100))
    link.connect(lambda p: None)
    writer = PcapWriter(link)
    packet = udp_packet("aa:bb:cc:dd:ee:01", "aa:bb:cc:dd:ee:02",
                        "1.2.3.4", "5.6.7.8", 1111, 2222, frame_len=200)
    sim.schedule(0.5, link.send, packet, packet.wire_len)
    sim.run()
    stream = io.BytesIO()
    assert writer.dump(stream) == 1
    ((timestamp, frame),) = _read_pcap(stream.getvalue())
    assert abs(timestamp - 0.5) < 1e-5
    decoded = decode_packet(frame)
    assert decoded.ip.src_ip == "1.2.3.4"
    assert decoded.l4.dst_port == 2222


def test_pcap_from_testbed_data_link():
    workload = single_packet_flows(mbps(30), n_flows=5,
                                   rng=RandomStreams(33))
    testbed = build_testbed(buffer_256(), workload, seed=33)
    cable = testbed.topology.cable("ovs", "host2")
    writer = PcapWriter(cable.forward)      # switch -> host2 direction
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=1.0)
    stream = io.BytesIO()
    assert writer.dump(stream) == 5
    records = _read_pcap(stream.getvalue())
    assert len(records) == 5
    times = [t for t, _ in records]
    assert times == sorted(times)
    sources = {decode_packet(frame).ip.src_ip for _, frame in records}
    assert len(sources) == 5                 # forged pktgen sources
    testbed.shutdown()


def test_pcap_skips_bare_control_messages():
    workload = single_packet_flows(mbps(30), n_flows=3,
                                   rng=RandomStreams(34))
    testbed = build_testbed(buffer_256(), workload, seed=34)
    cable = testbed.switches[0].agent.channel.cable
    writer = PcapWriter(cable.reverse)      # to switch
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=1.0)
    # flow_mods have no frame; buffered packet_outs have no frame either.
    assert writer.skipped > 0
    assert writer.frame_count == 0
    testbed.shutdown()


def test_pcap_save_to_file(tmp_path):
    sim = Simulator()
    link = Link(sim, "l", mbps(100))
    link.connect(lambda p: None)
    writer = PcapWriter(link)
    packet = udp_packet("aa:bb:cc:dd:ee:01", "aa:bb:cc:dd:ee:02",
                        "1.2.3.4", "5.6.7.8", 1, 2)
    link.send(packet, packet.wire_len)
    sim.run()
    path = tmp_path / "capture.pcap"
    assert writer.save(str(path)) == 1
    assert path.stat().st_size == 24 + 16 + packet.wire_len


def test_control_pcap_captures_dissectable_openflow():
    from repro.metrics import ControlPcapWriter
    from repro.openflow import PacketIn, decode_message

    workload = single_packet_flows(mbps(30), n_flows=4,
                                   rng=RandomStreams(35))
    testbed = build_testbed(buffer_256(), workload, seed=35)
    cable = testbed.switches[0].agent.channel.cable
    writer = ControlPcapWriter(cable.forward)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=1.0)
    stream = io.BytesIO()
    count = writer.dump(stream)
    assert count >= 4                       # at least the packet_ins
    records = _read_pcap(stream.getvalue())
    # Strip the synthetic Eth/IP/TCP framing and decode the OpenFlow
    # payload with the real codec.
    packet_ins = 0
    for _time, frame in records:
        decoded_frame = decode_packet(frame)
        assert decoded_frame.l4.dst_port == 6653
        payload = frame[54:]
        message = decode_message(payload)
        if isinstance(message, PacketIn):
            packet_ins += 1
    assert packet_ins == 4
    testbed.shutdown()


def test_control_pcap_tcp_sequence_advances():
    from repro.metrics import ControlPcapWriter
    from repro.openflow import Hello
    from repro.netsim import Link as _Link

    sim = Simulator()
    link = _Link(sim, "ctrl", mbps(100))
    link.connect(lambda m: None)
    writer = ControlPcapWriter(link)
    for _ in range(3):
        link.send(Hello(), 62)
    sim.run()
    stream = io.BytesIO()
    writer.dump(stream)
    records = _read_pcap(stream.getvalue())
    seqs = [decode_packet(frame).l4.seq for _, frame in records]
    assert seqs == [1, 9, 17]               # hello is 8 bytes on the wire
