"""Shard wire tests: the framed codec (round-trip property, golden
frame, per-item pickle escape), cut-through relay over a pipe and over
the in-process loopback, and crash cleanup."""

from __future__ import annotations

import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import buffer_256
from repro.openflow.actions import (ControllerAction, DropAction,
                                    OutputAction)
from repro.openflow.constants import OFP_NO_BUFFER, FlowModCommand
from repro.openflow.match import Match
from repro.openflow.messages import (BarrierRequest, EchoRequest, FlowMod,
                                     FlowRemoved, Hello, PacketIn,
                                     PacketOut, SetConfig)
from repro.packets.ethernet import EthernetHeader
from repro.packets.ipv4 import IPv4Header
from repro.packets.packet import Packet
from repro.packets.tcp import TCPHeader
from repro.packets.udp import UDPHeader
from repro.scenarios import parse_scenario
from repro.shard import (MAGIC_FRAME, PER_SWITCH, RelayHub, ShardChannel,
                         StringTable, WIRE_VERSION, decode_frame,
                         decode_round, emit_round, encode_round,
                         execute_sharded, loopback_pair, scan_round)
from repro.shard.transport import TAG_PICKLE
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import single_packet_flows


# ---------------------------------------------------------------------------
# Codec round-trip property (hypothesis)
# ---------------------------------------------------------------------------

_MACS = st.sampled_from(["00:00:00:00:00:01", "00:00:00:00:00:02",
                         "aa:bb:cc:dd:ee:0f"])
_IPS = st.sampled_from(["10.0.0.1", "10.0.0.2", "192.168.7.9"])


@st.composite
def _packets(draw):
    eth = EthernetHeader(draw(_MACS), draw(_MACS), 0x0800)
    ip = l4 = None
    if draw(st.booleans()):
        ip = IPv4Header(draw(_IPS), draw(_IPS),
                        protocol=draw(st.sampled_from([6, 17])),
                        ttl=draw(st.integers(0, 255)),
                        identification=draw(st.integers(0, 0xFFFF)))
        kind = draw(st.sampled_from(["udp", "tcp", None]))
        if kind == "udp":
            l4 = UDPHeader(draw(st.integers(0, 65535)), 443)
        elif kind == "tcp":
            l4 = TCPHeader(draw(st.integers(0, 65535)), 80,
                           seq=draw(st.integers(0, 2**32 - 1)),
                           flags=draw(st.integers(0, 255)))
    return Packet(eth, ip, l4,
                  payload_len=draw(st.integers(0, 1500)),
                  flow_id=draw(st.one_of(st.none(),
                                         st.integers(0, 10**6))),
                  seq_in_flow=draw(st.one_of(st.none(),
                                             st.integers(0, 1000))),
                  created_at=draw(st.one_of(st.none(),
                                            st.floats(0, 100))),
                  uid=draw(st.integers(1, 2**48)))


@st.composite
def _items(draw):
    choice = draw(st.integers(0, 5))
    if choice <= 1:
        return draw(_packets())
    if choice == 2:
        return PacketIn(packet=draw(_packets()),
                        in_port=draw(st.integers(0, 64)),
                        buffer_id=draw(st.sampled_from([OFP_NO_BUFFER,
                                                        1, 77])),
                        data_len=draw(st.integers(0, 1500)),
                        xid=draw(st.integers(0, 2**32)))
    if choice == 3:
        return FlowMod(match=Match(in_port=draw(st.integers(0, 64)),
                                   eth_dst=draw(_MACS),
                                   ip_dst=draw(_IPS)),
                       actions=(OutputAction(draw(st.integers(0, 64))),),
                       command=draw(st.sampled_from(list(FlowModCommand))),
                       priority=draw(st.integers(0, 0xFFFF)),
                       cookie=draw(st.integers(0, 2**40)),
                       xid=draw(st.integers(0, 2**32)))
    if choice == 4:
        return PacketOut(actions=draw(st.sampled_from(
                             [(DropAction(),), (OutputAction(3),),
                              (ControllerAction(128), OutputAction(1))])),
                         buffer_id=9, in_port=draw(st.integers(0, 64)),
                         xid=draw(st.integers(0, 2**32)))
    return draw(st.sampled_from([
        Hello(xid=3), EchoRequest(payload_len=8, xid=4),
        SetConfig(miss_send_len=128, xid=5), BarrierRequest(xid=6),
        FlowRemoved(match=Match(in_port=1), cookie=2, priority=7,
                    reason=1, duration=1.5, packet_count=10,
                    byte_count=999, xid=7),
    ]))


_MESSAGES = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1e6),
              st.integers(0, 65535), st.integers(0, 2**32 - 1), _items()),
    max_size=6)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batches=st.lists(_MESSAGES, min_size=1, max_size=4))
def test_codec_round_trip_property(batches):
    """decode(encode(batch)) == batch, across consecutive rounds on one
    table pair (string-table growth included), empty rounds and all."""
    enc, dec = StringTable(), StringTable()
    for batch in batches:
        frame = encode_round(batch, enc)
        decoded, end = decode_round(frame, dec)
        assert end == len(frame)
        assert decoded == batch


def test_codec_empty_round():
    enc, dec = StringTable(), StringTable()
    frame = encode_round([], enc)
    assert decode_round(frame, dec) == ([], len(frame))


def test_codec_max_scalars():
    pkt = Packet(EthernetHeader("00:00:00:00:00:01", "00:00:00:00:00:02"),
                 uid=2**63)
    batch = [(1.5e5, 65535, 2**32 - 1, pkt)]
    enc, dec = StringTable(), StringTable()
    assert decode_round(encode_round(batch, enc), dec)[0] == batch


def test_codec_pickle_escape():
    """Items the fast path does not know still travel, per-item pickled."""
    batch = [(0.1, 0, 1, {"stats": (1, 2, 3)}),
             (0.2, 0, 2, Hello(xid=9))]
    enc, dec = StringTable(), StringTable()
    frame = encode_round(batch, enc)
    assert decode_round(frame, dec)[0] == batch
    _, raw_messages, _ = scan_round(frame)
    assert raw_messages[0][3][0] == TAG_PICKLE       # the dict escaped
    # While an in-range FlowMod never escapes.
    fm = FlowMod(match=Match(in_port=1), actions=(DropAction(),), xid=1)
    _, raw_messages, _ = scan_round(
        encode_round([(0.0, 0, 0, fm)], StringTable()))
    assert raw_messages[0][3][0] != TAG_PICKLE


# ---------------------------------------------------------------------------
# Golden frame — change-detects the wire format
# ---------------------------------------------------------------------------

def _golden_batch():
    eth = EthernetHeader("00:00:00:00:00:01", "00:00:00:00:00:02", 0x0800)
    ip = IPv4Header("10.0.0.1", "10.0.0.2", protocol=17, ttl=64,
                    identification=7)
    pkt = Packet(eth, ip, UDPHeader(5000, 443), payload_len=512,
                 flow_id=3, seq_in_flow=0, created_at=0.25, uid=42)
    fm = FlowMod(match=Match(in_port=2, eth_dst="00:00:00:00:00:02"),
                 actions=(OutputAction(1),), priority=0x8000,
                 xid=11, sent_at=0.5)
    return [(0.375, 1, 9, pkt), (0.5, 0, 10, fm)]


#: The byte-exact encoding of ``_golden_batch()`` on a fresh table,
#: captured at WIRE_VERSION 1.  Any codec change that reshapes these
#: bytes must bump WIRE_VERSION and re-pin.
GOLDEN_FRAME_HEX = (
    "04001130303a30303a30303a30303a30303a3031011130303a30303a30303a3030"
    "3a30303a3032020831302e302e302e31030831302e302e302e3202000000000000"
    "d83f01000900000049000000013b2a000000000000000000000001000000000802"
    "0000000300000011400007008813bb010002000003000000000000000000000000"
    "00d03f00000000000000000000000000000000000000000000e03f00000a000000"
    "3c00000005010b00000000000000000000000000e03f000000000000000000ffff"
    "ffff0000000000000000000000000000000000808002000305020103010101"
)


def test_golden_frame_pins_wire_format():
    """Byte-exact pin of one representative frame.

    If this fails, the wire format changed: bump ``WIRE_VERSION`` in
    ``repro/shard/transport.py`` and regenerate the constant with::

        PYTHONPATH=src python -c "import tests.test_shard_transport as t; \\
            print(t._current_golden_hex())"
    """
    assert WIRE_VERSION == 1
    assert _current_golden_hex() == GOLDEN_FRAME_HEX


def _current_golden_hex() -> str:
    return encode_round(_golden_batch(), StringTable()).hex()


def test_frame_header_magic_and_version():
    from repro.shard.transport import encode_reply
    frame = encode_reply(_golden_batch(), 0.75, 5, StringTable())
    assert frame[0] == MAGIC_FRAME
    assert frame[1] == WIRE_VERSION
    decoded = decode_frame(frame, StringTable())
    assert decoded[0] == "advanced"
    messages, next_time, completed = decoded[1]
    assert (next_time, completed) == (0.75, 5)
    assert messages == _golden_batch()


def test_wire_version_mismatch_rejected():
    from repro.shard.transport import encode_reply
    frame = bytearray(encode_reply([], 0.0, None, StringTable()))
    frame[1] = WIRE_VERSION + 1
    with pytest.raises(ValueError, match="wire version"):
        decode_frame(bytes(frame), StringTable())


# ---------------------------------------------------------------------------
# Cut-through relay: scan, gossip, splice
# ---------------------------------------------------------------------------

def test_scan_emit_relay_round_trip():
    """Worker-encoded rounds survive scan → adopt → splice verbatim."""
    worker_enc = StringTable(offset=1, stride=3)   # shard 1 of 3
    batch = _golden_batch()
    frame = encode_round(batch, worker_enc)
    minted, raw_messages, end = scan_round(frame)
    assert end == len(frame)
    assert [m[:3] for m in raw_messages] == [m[:3] for m in batch]
    # The coordinator relays the minted pairs, never re-interns refs.
    gossip = StringTable()
    gossip.adopt(minted)
    spliced = emit_round(raw_messages, gossip)
    decoded, _ = decode_round(spliced, StringTable())
    assert decoded == batch


def test_namespaced_tables_never_collide():
    a = StringTable(offset=0, stride=2)
    b = StringTable(offset=1, stride=2)
    for table, strings in ((a, ["x", "y"]), (b, ["x", "z"])):
        for text in strings:
            table.ref(text)
    assert not (set(a.ids.values()) & set(b.ids.values()))


def test_relay_hub_skips_source():
    hub = RelayHub()
    tables = [hub.register() for _ in range(3)]
    hub.publish([(4, "aa")], source=1)
    assert tables[0].pending == [(4, "aa")]
    assert tables[1].pending == []
    assert tables[2].pending == [(4, "aa")]


def test_channel_relay_end_to_end():
    """Two parent/worker channel pairs wired through one hub: worker A's
    reply is scanned (never decoded) by the coordinator and spliced into
    an advance that worker B decodes back to equal objects."""
    hub = RelayHub()
    conn_a_parent, conn_a_worker = multiprocessing.Pipe(duplex=True)
    conn_b_parent, conn_b_worker = multiprocessing.Pipe(duplex=True)
    parent_a = ShardChannel(conn_a_parent, role="parent", hub=hub,
                            shard_index=0)
    parent_b = ShardChannel(conn_b_parent, role="parent", hub=hub,
                            shard_index=1)
    worker_a = ShardChannel(conn_a_worker, role="worker", shard_index=0,
                            n_shards=2)
    worker_b = ShardChannel(conn_b_worker, role="worker", shard_index=1,
                            n_shards=2)
    batch = _golden_batch()
    worker_a.send_reply(batch, 0.625, None)
    tag, (raw_messages, next_time, completed) = parent_a.recv()
    assert (tag, next_time, completed) == ("advanced", 0.625, None)
    parent_b.send_advance(0.75, raw_messages, True)
    assert worker_b.recv() == ("advance", 0.75, batch, True)
    assert parent_a.stats.frames_in == 1
    assert parent_b.stats.frames_out == 1
    for conn in (conn_a_parent, conn_a_worker, conn_b_parent,
                 conn_b_worker):
        conn.close()


def test_loopback_carries_the_frames_a_pipe_does():
    """The inline carrier: each end receives what the other sent, in
    order, and channels over it relay exactly as over pipes, shipping
    the same frame bytes."""
    left, right = loopback_pair()
    left.send_bytes(b"a")
    left.send_bytes(b"b")
    right.send_bytes(b"c")
    assert [right.recv_bytes(), right.recv_bytes()] == [b"a", b"b"]
    assert left.recv_bytes() == b"c"

    from repro.shard.transport import encode_reply
    hub = RelayHub()
    parents, workers = [], []
    for index in range(2):
        parent_end, worker_end = loopback_pair()
        parents.append(ShardChannel(parent_end, role="parent", hub=hub,
                                    shard_index=index))
        workers.append(ShardChannel(worker_end, role="worker",
                                    shard_index=index, n_shards=2))
    workers[0].send_ready(0.25, [(0.5, 1, 0, Hello(xid=1))])
    tag, (first, ready) = parents[0].recv()
    assert (tag, first, [m[:3] for m in ready]) == ("ready", 0.25,
                                                    [(0.5, 1, 0)])
    batch = _golden_batch()
    workers[0].send_reply(batch, 0.625, 3)
    tag, (raw_messages, next_time, completed) = parents[0].recv()
    assert (tag, next_time, completed) == ("advanced", 0.625, 3)
    parents[1].send_advance(0.75, raw_messages, True)
    assert workers[1].recv() == ("advance", 0.75, batch, True)
    # Shard 0 of 2 mints ids 0, 2, 4, …: its reply is byte for byte what
    # a pipe-connected worker with the same table sends.
    expected = encode_reply(batch, 0.625, 3, StringTable(offset=0, stride=2))
    assert parents[0].stats.bytes_in == workers[0].stats.bytes_out \
        == len(expected)


# ---------------------------------------------------------------------------
# Worker-crash cleanup (satellite regression)
# ---------------------------------------------------------------------------

def test_worker_crash_cleans_up_fleet(monkeypatch):
    """Killing one fork worker mid-run raises and terminates the
    siblings."""
    from repro.shard import coordinator as coord

    original = coord.ShardCoordinator.run_until

    def sabotage(self, deadline):
        self.handles[1]._process.kill()
        return original(self, deadline)

    monkeypatch.setattr(coord.ShardCoordinator, "run_until", sabotage)
    spec = parse_scenario("line:2").with_shard(PER_SWITCH)
    workload = single_packet_flows(mbps(4.0), n_flows=6,
                                   rng=RandomStreams(3))
    with pytest.raises(RuntimeError, match="worker died|worker failed"):
        execute_sharded(buffer_256(), workload, seed=3, scenario=spec,
                        transport="fork")
    for child in multiprocessing.active_children():
        assert not child.is_alive()
