"""Shard wire tests: pickled per-destination batches round-trip every
item that crosses a cut (property and field for field, over the
in-process loopback and a real pipe), cut-through relay, the deadline
hold-back, the round structure it keeps, and crash cleanup."""

from __future__ import annotations

import dataclasses
import math
import multiprocessing

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import BufferConfig, buffer_256
from repro.openflow.actions import (ControllerAction, DropAction,
                                    OutputAction)
from repro.openflow.constants import (OFP_NO_BUFFER, ErrorType,
                                      FlowModCommand, PacketInReason)
from repro.openflow.match import Match
from repro.openflow.messages import (BarrierReply, BarrierRequest,
                                     EchoReply, EchoRequest, ErrorMsg,
                                     FeaturesReply, FeaturesRequest,
                                     FlowMod, FlowRemoved, FlowStatsEntry,
                                     FlowStatsReply, FlowStatsRequest,
                                     GetConfigReply, GetConfigRequest,
                                     Hello, OFMessage, PacketIn, PacketOut,
                                     PortStatsEntry, PortStatsReply,
                                     PortStatsRequest, SetConfig)
from repro.packets.ethernet import EthernetHeader
from repro.packets.flowkey import FiveTuple
from repro.packets.ipv4 import IPv4Header
from repro.packets.packet import Packet
from repro.packets.tcp import TCPHeader
from repro.packets.udp import UDPHeader
from repro.scenarios import parse_scenario
from repro.shard import (PER_SWITCH, ShardChannel, execute_sharded,
                         loopback_pair, parse_shard)
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import single_packet_flows


def _pipe_pair():
    return multiprocessing.Pipe(duplex=True)


_CARRIERS = {"loopback": loopback_pair, "pipe": _pipe_pair}


class _Wire:
    """Worker A → coordinator → worker B, each hop a channel pair."""

    def __init__(self, carrier: str = "loopback"):
        make = _CARRIERS[carrier]
        self.conns = [*make(), *make()]
        parent_a, worker_a, parent_b, worker_b = (ShardChannel(conn)
                                                  for conn in self.conns)
        self.parent_a, self.worker_a = parent_a, worker_a
        self.parent_b, self.worker_b = parent_b, worker_b

    def relay(self, messages, deadline=math.inf):
        """Ship ``messages`` from A to B; B's advance as received."""
        self.worker_a.send_reply([(1, messages)] if messages else [],
                                 0.625, None)
        tag, (batches, next_time, completed) = self.parent_a.recv()
        assert (tag, next_time, completed) == ("advanced", 0.625, None)
        self.parent_b.send_advance(0.5, deadline,
                                   [blob for _dst, _t, blob in batches],
                                   False)
        return self.worker_b.recv()

    def close(self):
        for conn in self.conns:
            close = getattr(conn, "close", None)
            if close is not None:
                close()


# ---------------------------------------------------------------------------
# Round-trip property (hypothesis)
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
    """What worker B receives is what worker A sent, round after round
    on one channel set, empty rounds and all."""
    wire = _Wire()
    for batch in batches:
        assert wire.relay(batch) == ("advance", 0.5, batch, False)


def test_codec_empty_round():
    wire = _Wire()
    assert wire.relay([]) == ("advance", 0.5, [], False)
    assert wire.parent_a.stats.frames_in == wire.parent_b.stats.frames_out \
        == 1


def test_codec_max_scalars():
    pkt = Packet(EthernetHeader("00:00:00:00:00:01", "00:00:00:00:00:02"),
                 uid=2**63)
    batch = [(1.5e5, 65535, 2**32 - 1, pkt)]
    assert _Wire().relay(batch)[2] == batch


# ---------------------------------------------------------------------------
# Every item type that can cross a cut, field for field
# ---------------------------------------------------------------------------

def _cut_items():
    eth = EthernetHeader("00:00:00:00:00:01", "00:00:00:00:00:02", 0x0800)
    ip = IPv4Header("10.0.0.1", "10.0.0.2", protocol=17, ttl=64,
                    identification=7)
    udp = Packet(eth, ip, UDPHeader(5000, 443), payload_len=512,
                 flow_id=3, seq_in_flow=0, created_at=0.25,
                 switch_in_at=0.26, switch_out_at=0.27, uid=42)
    tcp = Packet(eth, IPv4Header("10.0.0.1", "10.0.0.2", protocol=6),
                 TCPHeader(5001, 80, seq=2**31, ack=9, flags=0x12,
                           window=4096),
                 payload_len=1400, flow_id=4, seq_in_flow=2,
                 created_at=0.5, uid=43)
    match = Match(in_port=2, eth_dst="00:00:00:00:00:02", ip_dst="10.0.0.2")
    stamps = dict(sent_at=0.125, in_reply_to=900)
    return [
        udp, tcp,
        PacketIn(packet=udp, in_port=1, buffer_id=5, data_len=128,
                 reason=PacketInReason.ACTION, is_retry=True, xid=101,
                 **stamps),
        PacketOut(actions=(OutputAction(2),), buffer_id=5, in_port=1,
                  xid=102, **stamps),
        PacketOut(actions=(ControllerAction(128), DropAction()),
                  in_port=1, data_len=tcp.wire_len, packet=tcp, xid=103),
        FlowMod(match=match, actions=(OutputAction(1),),
                command=FlowModCommand.MODIFY, priority=0x8001,
                idle_timeout=1.5, hard_timeout=3.0, buffer_id=5,
                cookie=2**40, send_flow_removed=True, xid=104, **stamps),
        FlowRemoved(match=match, cookie=2, priority=7, reason=2,
                    duration=1.5, packet_count=10, byte_count=999,
                    xid=105),
        Hello(xid=106), EchoRequest(payload_len=8, xid=107),
        EchoReply(payload_len=8, xid=108, **stamps),
        FeaturesRequest(xid=109),
        FeaturesReply(datapath_id=7, n_buffers=256, n_tables=2,
                      ports=(1, 2, 3), xid=110),
        SetConfig(miss_send_len=64, flags=1, xid=111),
        GetConfigRequest(xid=112),
        GetConfigReply(miss_send_len=64, flags=1, xid=113),
        BarrierRequest(xid=114), BarrierReply(xid=115, **stamps),
        ErrorMsg(error_type=ErrorType.BAD_ACTION, code=3, context_len=12,
                 xid=116),
        FlowStatsRequest(match=match, xid=117),
        FlowStatsReply(entries=(FlowStatsEntry(match, 7, 1.25, 4, 512),),
                       xid=118, **stamps),
        PortStatsRequest(port_no=2, xid=119),
        PortStatsReply(entries=(PortStatsEntry(2, 1, 2, 64, 128, 0),),
                       xid=120, **stamps),
    ]


def _identity(item):
    """The fields a run keys on: uid and stamps, or xid and stamps."""
    if isinstance(item, Packet):
        return (item.uid, item.created_at, item.switch_in_at,
                item.switch_out_at)
    assert isinstance(item, OFMessage)
    return (item.xid, item.sent_at, item.in_reply_to)


@pytest.mark.parametrize("carrier", sorted(_CARRIERS))
def test_every_cut_item_round_trips_field_for_field(carrier):
    items = _cut_items()
    messages = [(0.001 * n, n % 3, n, item) for n, item in enumerate(items)]
    wire = _Wire(carrier)
    try:
        _tag, _t_end, received, _inclusive = wire.relay(messages)
    finally:
        wire.close()
    assert len(received) == len(items)
    for sent, got in zip(messages, received):
        assert got[:3] == sent[:3]
        assert type(got[3]) is type(sent[3])
        assert _identity(got[3]) == _identity(sent[3])
        assert {f.name: getattr(got[3], f.name)
                for f in dataclasses.fields(got[3])} \
            == {f.name: getattr(sent[3], f.name)
                for f in dataclasses.fields(sent[3])}


def test_packet_crossing_twice_keeps_its_five_tuple():
    """A packet whose flow key was never computed crosses a cut, then
    crosses again inside a packet_in with a 2**32-byte data length; the
    copy still computes its key, and never returns a stray copy of the
    in-process "not computed" sentinel in its place."""
    original = _cut_items()[0]
    wire = _Wire()
    crossed = wire.relay([(0.1, 0, 0, original.replay_copy())])[2][0][3]
    packet_in = PacketIn(packet=crossed, in_port=1, data_len=2**32,
                         xid=7)
    again = wire.relay([(0.2, 0, 1, packet_in)])[2][0][3]
    assert again.packet.five_tuple == FiveTuple.from_packet(original)
    assert isinstance(again.packet.five_tuple, FiveTuple)


# ---------------------------------------------------------------------------
# Cut-through relay and the deadline hold-back
# ---------------------------------------------------------------------------

def test_channel_relay_end_to_end():
    """Worker A's reply is routed by the coordinator as opaque blobs,
    with the delivery times it books, and worker B unpickles them back
    to equal objects; over real pipes."""
    batch = [(0.375, 1, 9, _cut_items()[0]), (0.5, 0, 10, _cut_items()[5])]
    wire = _Wire("pipe")
    try:
        wire.worker_a.send_reply([(1, batch)], 0.625, 4)
        tag, (batches, next_time, completed) = wire.parent_a.recv()
        assert (tag, next_time, completed) == ("advanced", 0.625, 4)
        [(dst, times, blob)] = batches
        assert (dst, times, type(blob)) == (1, [0.375, 0.5], bytes)
        wire.parent_b.send_advance(0.75, 1.0, [blob], True)
        assert wire.worker_b.recv() == ("advance", 0.75, batch, True)
        assert wire.parent_a.stats.frames_in == 1
        assert wire.parent_b.stats.frames_out == 1
    finally:
        wire.close()


def test_worker_holds_back_messages_past_the_deadline():
    """One batch straddles the advance's deadline: the worker injects the
    message due by it and keeps the later one for the first advance
    whose deadline covers it, blob or no blob."""
    early, late = (0.1, 0, 0, Hello(xid=1)), (0.3, 0, 1, Hello(xid=2))
    wire = _Wire()
    assert wire.relay([late, early], deadline=0.2)[2] == [early]
    wire.parent_b.send_advance(0.25, 0.2, [], True)
    assert wire.worker_b.recv()[2] == []
    wire.parent_b.send_advance(0.35, 0.4, [], False)
    assert wire.worker_b.recv()[2] == [late]


def test_loopback_carries_the_frames_a_pipe_does():
    """The inline carrier: each end receives what the other sent, in
    order, and a channel over it ships the same bytes a channel over a
    pipe does and relays the same messages."""
    left, right = loopback_pair()
    left.send_bytes(b"a")
    left.send_bytes(b"b")
    right.send_bytes(b"c")
    assert [right.recv_bytes(), right.recv_bytes()] == [b"a", b"b"]
    assert left.recv_bytes() == b"c"

    items = _cut_items()
    messages = [(0.001 * n, 0, n, item) for n, item in enumerate(items)]
    loop, pipe = _Wire("loopback"), _Wire("pipe")
    try:
        assert loop.relay(messages) == pipe.relay(messages)
        for side in ("parent_a", "worker_a", "parent_b", "worker_b"):
            assert getattr(loop, side).stats.bytes_out \
                == getattr(pipe, side).stats.bytes_out
            assert getattr(loop, side).stats.bytes_in \
                == getattr(pipe, side).stats.bytes_in
    finally:
        pipe.close()


# ---------------------------------------------------------------------------
# The hold-back keeps every injection round
# ---------------------------------------------------------------------------

def _churn_run():
    """``line4_churn`` at seed 1: line:4, per-switch:2, 1,000 flows over
    512-rule tables and 5 ms cables, shards inline."""
    from repro.experiments.calibration import default_calibration
    cal = default_calibration()
    cal = dataclasses.replace(
        cal, link_propagation_delay=5e-3,
        switch=dataclasses.replace(cal.switch, flow_table_capacity=512))
    workload = single_packet_flows(mbps(40.0), n_flows=1000,
                                   rng=RandomStreams(1))
    return execute_sharded(
        BufferConfig(), workload, calibration=cal, seed=1,
        scenario=parse_scenario("line:4").with_shard(
            parse_shard("per-switch:2")), transport="inline").report


def _verify_line_two():
    """The sharded half of ``shard-verify --scenario line:2``."""
    workload = single_packet_flows(mbps(4.0), n_flows=30,
                                   rng=RandomStreams(7))
    return execute_sharded(
        BufferConfig(), workload, seed=7,
        scenario=parse_scenario("line:2").with_shard(PER_SWITCH),
        transport="inline").report


_REPORT_IN_FRESH_INTERPRETER = """
import json, sys
sys.path.insert(0, {tests!r})
from test_shard_transport import {run}
report = {run}()
print(json.dumps({{key: getattr(report, key) for key in {keys!r}}}))
"""


@pytest.mark.parametrize("run, expected", [
    ("_churn_run", dict(rounds=97, rounds_coalesced=5, messages=7012,
                        horizon_stalls=3, bytes_total=3_668_402)),
    ("_verify_line_two", dict(rounds=1055, messages=218, horizon_stalls=3,
                              bytes_total=402_544)),
], ids=["line4_churn", "shard_verify_line2"])
def test_round_structure_is_pinned(run, expected):
    """Rounds, coalesced skips, messages, stalls and wire bytes as the
    per-message wire produced them: a batch straddling a deadline must
    not move any message to another advance.

    The run gets a fresh interpreter: inline shards share the
    process-wide xid and packet-uid counters, and pickle sizes an int
    by its value, so in this process the bytes would depend on how
    many runs came before.  The interpreter's hash seed
    is left random: no byte may depend on it.
    """
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro
    code = _REPORT_IN_FRESH_INTERPRETER.format(
        tests=str(Path(__file__).resolve().parent), run=run,
        keys=sorted(expected))
    path = [str(Path(repro.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONHASHSEED="random",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=300,
                            check=True)
    assert json.loads(result.stdout) == expected


# ---------------------------------------------------------------------------
# Worker-crash cleanup
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
