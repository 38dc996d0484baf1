"""The shard wire: framed rounds, cut-through relay, stats.

Cross-shard messages have a fixed shape — ``(deliver_time, cut_index,
per_link_seq, item)`` where the item is a :class:`~repro.packets.Packet`
or an OpenFlow control message built from a small, closed vocabulary of
immutable headers.  Every advance/reply round travels as one versioned
``struct``-packed frame: a string-table delta (MAC/IP strings are
interned once per channel direction and referenced by integer id
thereafter), a varint message count, and per-message fixed-format
records — one ``struct.pack`` per item on the common paths.  Items with
no frame encoder (the flow- and port-stats requests and replies that
cross the controller↔switch cut) and items whose fields overflow the
packed formats are pickle-escaped *per item* (``TAG_PICKLE``), so
correctness never depends on the fast path's coverage.

Frames ride a :class:`ShardChannel` over anything with ``send_bytes``
and ``recv_bytes``: a duplex pipe to a forked worker, or the two ends of
a :func:`loopback_pair` when the shard runs in the coordinator's own
process — so inline runs ship exactly the bytes a fork run does.
Cold-path control messages (ready/collect/state/stop/error) are pickled
and never timed: the hot path is the per-round advance/reply pair, and
that is what :class:`TransportStats` measures.

The wire is an execution detail and stays out of the result cache's
key: :meth:`repro.shard.spec.ShardSpec.cache_token` does not mention it.
"""

from __future__ import annotations

import pickle
from collections import deque
from dataclasses import asdict, dataclass
from struct import Struct
from struct import error as StructError
from time import perf_counter
from typing import Any, List, Optional, Tuple

from ..openflow.actions import ControllerAction, DropAction, OutputAction
from ..openflow.constants import ErrorType, FlowModCommand, PacketInReason
from ..openflow.match import Match
from ..openflow.messages import (BarrierReply, BarrierRequest, EchoReply,
                                 EchoRequest, ErrorMsg, FeaturesReply,
                                 FeaturesRequest, FlowMod, FlowRemoved,
                                 GetConfigReply, GetConfigRequest, Hello,
                                 PacketIn, PacketOut, SetConfig)
from ..packets.ethernet import EthernetHeader
from ..packets.ipv4 import IPv4Header
from ..packets.packet import _UNSET, Packet
from ..packets.tcp import TCPHeader
from ..packets.udp import UDPHeader

#: Bump on any wire-format change; the golden-frame test change-detects it.
WIRE_VERSION = 1

#: First byte of a framed message on the pipe (pickle streams start 0x80).
MAGIC_FRAME = 0xF5


# ---------------------------------------------------------------------------
# Varints (unsigned LEB128)
# ---------------------------------------------------------------------------

def _pack_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(data, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


# ---------------------------------------------------------------------------
# String table
# ---------------------------------------------------------------------------

class StringTable:
    """One direction's interning state, encoder and decoder halves.

    MAC/IP strings are assigned integer ids in first-use order; each
    frame carries only the ``(id, text)`` pairs minted since the previous
    frame (the *pending* delta) and the decoder absorbs them into its
    id→string map, so both sides agree on every id without negotiation.

    Ids are **namespaced**: an encoder constructed with ``offset``/
    ``stride`` mints ``offset``, ``offset + stride``, … so every encoder
    in a run can be given a disjoint id space (worker ``i`` gets offset
    ``i``, stride ``n + 1``).  That is what lets the coordinator forward
    a worker's encoded records to *other* workers verbatim: it only has
    to relay the minted pairs (:meth:`adopt`), never to re-intern the
    refs inside the records.

    The table also memoises whole headers: the encoder maps frozen
    header objects to their packed refs, and the decoder maps refs back
    to shared header instances — skipping re-validation (MAC regexes,
    range checks) for the overwhelmingly common case of packets from
    already-seen flows.
    """

    __slots__ = ("ids", "pending", "strings", "offset", "stride",
                 "last_minted",
                 "_eth_enc", "_ip_enc", "_match_enc",
                 "_eth_dec", "_ip_dec", "_udp_dec", "_tcp_dec", "_match_dec")

    def __init__(self, offset: int = 0, stride: int = 1) -> None:
        self.ids = {}           # str -> id (encoder half)
        self.pending = []       # (id, text) pairs minted since last frame
        self.strings = {}       # id -> str (decoder half)
        self.offset = offset
        self.stride = stride
        self.last_minted = ()   # pairs seen in the latest decoded round
        self._eth_enc = {}
        self._ip_enc = {}
        self._match_enc = {}
        self._eth_dec = {}
        self._ip_dec = {}
        self._udp_dec = {}
        self._tcp_dec = {}
        self._match_dec = {}

    # -- encoder half ---------------------------------------------------
    def ref(self, text: str) -> int:
        ident = self.ids.get(text)
        if ident is None:
            ident = self.offset + len(self.ids) * self.stride
            self.ids[text] = ident
            self.pending.append((ident, text))
        return ident

    def take_pending(self) -> List[Tuple[int, str]]:
        minted, self.pending = self.pending, []
        return minted

    def adopt(self, pairs) -> None:
        """Queue foreign ``(id, text)`` pairs for the next frame's prelude.

        Used by the coordinator to relay definitions minted by one
        worker down the channels of the others, so spliced raw records
        resolve everywhere.  Foreign ids live in other namespaces and
        never collide with this encoder's own mints.
        """
        self.pending.extend(pairs)

    def eth_refs(self, eth: EthernetHeader) -> Tuple[int, int, int]:
        refs = self._eth_enc.get(eth)
        if refs is None:
            refs = (self.ref(eth.src_mac), self.ref(eth.dst_mac),
                    eth.ethertype)
            self._eth_enc[eth] = refs
        return refs

    def ip_refs(self, ip: IPv4Header) -> tuple:
        refs = self._ip_enc.get(ip)
        if refs is None:
            refs = (self.ref(ip.src_ip), self.ref(ip.dst_ip), ip.protocol,
                    ip.ttl, ip.dscp, ip.identification)
            self._ip_enc[ip] = refs
        return refs

    # -- decoder half ---------------------------------------------------
    #
    # Decoded headers are built through ``__new__`` + an in-place
    # ``__dict__`` fill — the same construction path pickle's default
    # ``__setstate__`` uses (frozen dataclasses veto ``__setattr__``,
    # so assignment must bypass it) — because every
    # encoded object was already validated at its original birth and
    # re-running MAC/IP regex validation per message is what made the
    # first framed codec *slower* than the C unpickler.  Mutable objects
    # (Packet, OF messages) are always fresh; immutable headers memoise.

    def absorb(self, minted) -> None:
        self.strings.update(minted)

    def eth_from(self, refs: Tuple[int, int, int]) -> EthernetHeader:
        header = self._eth_dec.get(refs)
        if header is None:
            header = EthernetHeader.__new__(EthernetHeader)
            header.__dict__.update(src_mac=self.strings[refs[0]],
                                   dst_mac=self.strings[refs[1]],
                                   ethertype=refs[2])
            self._eth_dec[refs] = header
        return header

    def ip_from(self, refs: tuple) -> IPv4Header:
        header = self._ip_dec.get(refs)
        if header is None:
            header = IPv4Header.__new__(IPv4Header)
            header.__dict__.update(src_ip=self.strings[refs[0]],
                                   dst_ip=self.strings[refs[1]],
                                   protocol=refs[2], ttl=refs[3],
                                   dscp=refs[4], identification=refs[5])
            self._ip_dec[refs] = header
        return header

    def udp_from(self, refs: Tuple[int, int]) -> UDPHeader:
        header = self._udp_dec.get(refs)
        if header is None:
            header = UDPHeader.__new__(UDPHeader)
            header.__dict__.update(src_port=refs[0], dst_port=refs[1])
            self._udp_dec[refs] = header
        return header

    def tcp_from(self, refs: tuple) -> TCPHeader:
        header = self._tcp_dec.get(refs)
        if header is None:
            header = TCPHeader.__new__(TCPHeader)
            header.__dict__.update(src_port=refs[0], dst_port=refs[1],
                                   seq=refs[2], ack=refs[3],
                                   flags=refs[4], window=refs[5])
            self._tcp_dec[refs] = header
        return header


# ---------------------------------------------------------------------------
# Item codecs
# ---------------------------------------------------------------------------

TAG_PICKLE = 0
TAG_PACKET = 1           # UDP or header-only packets
TAG_PACKET_TCP = 2
TAG_PACKET_IN = 3
TAG_PACKET_OUT = 4
TAG_FLOW_MOD = 5
TAG_HELLO = 6
TAG_ECHO_REQUEST = 7
TAG_ECHO_REPLY = 8
TAG_FEATURES_REQUEST = 9
TAG_FEATURES_REPLY = 10
TAG_SET_CONFIG = 11
TAG_GET_CONFIG_REQUEST = 12
TAG_GET_CONFIG_REPLY = 13
TAG_FLOW_REMOVED = 14
TAG_BARRIER_REQUEST = 15
TAG_BARRIER_REPLY = 16
TAG_ERROR_MSG = 17

# Packet flags: which optional fields are present.
_PF_IP = 1
_PF_L4 = 2
_PF_FLOW_ID = 8
_PF_SEQ = 16
_PF_CREATED = 32
_PF_SW_IN = 64
_PF_SW_OUT = 128

# tag, flags, uid, src_mac, dst_mac, ethertype, src_ip, dst_ip, proto,
# ttl, dscp, ident, sport, dport, payload_len, flow_id, seq_in_flow,
# created_at, switch_in_at, switch_out_at.  Absent optionals pack as 0
# (the flags byte says which to trust), keeping the format constant so
# each packet costs one pack/unpack call.
_PKT = Struct("<BBQIIHIIBBBHHHIIIddd")
# The TCP variant inserts seq, ack, tcp-flags, window after the ports.
_PKT_TCP = Struct("<BBQIIHIIBBBHHHIIBHIIIddd")

# OF common flags.
_OF_SENT_AT = 1
_OF_IN_REPLY = 2

# tag, flags, xid, sent_at, in_reply_to.
_OF_BASE = Struct("<BBQdQ")
# buffer_id, in_port, data_len, reason, is_retry (PacketIn tail).
_PKTIN_TAIL = Struct("<IIIBB")
# buffer_id, in_port, data_len, has_packet (PacketOut tail).
_PKTOUT_TAIL = Struct("<IIIB")
# command, buffer_id, send_flow_removed, idle_timeout, hard_timeout
# (FlowMod tail; priority/cookie ride as varints).
_FLOWMOD_TAIL = Struct("<BIBdd")

_D = Struct("<d")

_FALLBACK_ERRORS = (KeyError, ValueError, OverflowError, StructError)


def _encode_packet(out: bytearray, pkt: Packet, table: StringTable) -> None:
    eth = table.eth_refs(pkt.eth)
    flags = 0
    ip = pkt.ip
    if ip is not None:
        flags |= _PF_IP
        ipr = table.ip_refs(ip)
    else:
        ipr = (0, 0, 0, 0, 0, 0)
    l4 = pkt.l4
    tag = TAG_PACKET
    if l4 is not None:
        flags |= _PF_L4
        if type(l4) is TCPHeader:
            tag = TAG_PACKET_TCP
        elif type(l4) is not UDPHeader:
            raise ValueError(f"unframeable L4 header {type(l4).__name__}")
    flow_id = pkt.flow_id
    if flow_id is not None:
        flags |= _PF_FLOW_ID
    else:
        flow_id = 0
    seq = pkt.seq_in_flow
    if seq is not None:
        flags |= _PF_SEQ
    else:
        seq = 0
    created = pkt.created_at
    if created is not None:
        flags |= _PF_CREATED
    else:
        created = 0.0
    sw_in = pkt.switch_in_at
    if sw_in is not None:
        flags |= _PF_SW_IN
    else:
        sw_in = 0.0
    sw_out = pkt.switch_out_at
    if sw_out is not None:
        flags |= _PF_SW_OUT
    else:
        sw_out = 0.0
    if tag == TAG_PACKET_TCP:
        out += _PKT_TCP.pack(
            tag, flags, pkt.uid, eth[0], eth[1], eth[2],
            ipr[0], ipr[1], ipr[2], ipr[3], ipr[4], ipr[5],
            l4.src_port, l4.dst_port, l4.seq, l4.ack, l4.flags, l4.window,
            pkt.payload_len, flow_id, seq, created, sw_in, sw_out)
    else:
        sport = dport = 0
        if l4 is not None:
            sport, dport = l4.src_port, l4.dst_port
        out += _PKT.pack(
            tag, flags, pkt.uid, eth[0], eth[1], eth[2],
            ipr[0], ipr[1], ipr[2], ipr[3], ipr[4], ipr[5],
            sport, dport, pkt.payload_len, flow_id, seq,
            created, sw_in, sw_out)


def _decode_packet(data, pos: int, table: StringTable) -> Tuple[Packet, int]:
    tag = data[pos]
    if tag == TAG_PACKET_TCP:
        (tag, flags, uid, src_mac, dst_mac, ethertype,
         src_ip, dst_ip, proto, ttl, dscp, ident,
         sport, dport, tseq, tack, tflags, twindow,
         payload_len, flow_id, seq, created, sw_in,
         sw_out) = _PKT_TCP.unpack_from(data, pos)
        pos += _PKT_TCP.size
        l4 = (table.tcp_from((sport, dport, tseq, tack, tflags, twindow))
              if flags & _PF_L4 else None)
    else:
        (tag, flags, uid, src_mac, dst_mac, ethertype,
         src_ip, dst_ip, proto, ttl, dscp, ident,
         sport, dport, payload_len, flow_id, seq, created, sw_in,
         sw_out) = _PKT.unpack_from(data, pos)
        pos += _PKT.size
        l4 = table.udp_from((sport, dport)) if flags & _PF_L4 else None
    packet = Packet.__new__(Packet)
    packet.__dict__ = {
        "eth": table.eth_from((src_mac, dst_mac, ethertype)),
        "ip": (table.ip_from((src_ip, dst_ip, proto, ttl, dscp, ident))
               if flags & _PF_IP else None),
        "l4": l4,
        "payload_len": payload_len,
        "flow_id": flow_id if flags & _PF_FLOW_ID else None,
        "seq_in_flow": seq if flags & _PF_SEQ else None,
        "created_at": created if flags & _PF_CREATED else None,
        "switch_in_at": sw_in if flags & _PF_SW_IN else None,
        "switch_out_at": sw_out if flags & _PF_SW_OUT else None,
        "uid": uid,
        "_exact_key": None, "_five_tuple": _UNSET, "_wire_len": None,
    }
    return packet, pos


def _encode_of_base(out: bytearray, tag: int, msg) -> None:
    flags = 0
    sent_at = msg.sent_at
    if sent_at is not None:
        flags |= _OF_SENT_AT
    else:
        sent_at = 0.0
    in_reply_to = msg.in_reply_to
    if in_reply_to is not None:
        flags |= _OF_IN_REPLY
    else:
        in_reply_to = 0
    out += _OF_BASE.pack(tag, flags, msg.xid, sent_at, in_reply_to)


def _decode_of_base(data, pos: int) -> Tuple[dict, int]:
    _tag, flags, xid, sent_at, in_reply_to = _OF_BASE.unpack_from(data, pos)
    # The explicit xid (and ``__new__`` construction throughout) keeps
    # the worker's next_xid() counter untouched — decoding must not
    # advance id sources or bit-identity breaks.
    return {"xid": xid,
            "sent_at": sent_at if flags & _OF_SENT_AT else None,
            "in_reply_to": in_reply_to if flags & _OF_IN_REPLY else None,
            }, pos + _OF_BASE.size


#: Action-list memos.  The encoding contains no table refs (ports are
#: literal), so raw bytes are globally unambiguous: the encoder maps
#: action tuples to length-prefixed bytes and the decoder maps those
#: bytes straight back to one shared tuple of frozen action instances —
#: the common case is a single dict hit each way.
_ACTIONS_ENC: dict = {}
_ACTIONS_DEC: dict = {}

#: Enum value→member maps — ``PacketInReason(value)`` goes through
#: ``EnumMeta.__call__`` every time, a dict lookup does not.
_PKTIN_REASON = {member.value: member for member in PacketInReason}
_FLOWMOD_CMD = {member.value: member for member in FlowModCommand}


def _encode_actions(out: bytearray, actions) -> None:
    raw = _ACTIONS_ENC.get(actions)
    if raw is None:
        body = bytearray()
        _pack_varint(body, len(actions))
        for action in actions:
            kind = type(action)
            if kind is OutputAction:
                body.append(1)
                _pack_varint(body, action.port)
            elif kind is DropAction:
                body.append(2)
            elif kind is ControllerAction:
                body.append(3)
                _pack_varint(body, action.max_len)
            else:
                raise ValueError(f"unframeable action {kind.__name__}")
        full = bytearray()
        _pack_varint(full, len(body))
        full += body
        raw = _ACTIONS_ENC[actions] = bytes(full)
    out += raw


def _decode_actions(data, pos: int) -> Tuple[tuple, int]:
    length = data[pos]
    pos += 1
    if length > 0x7F:  # varint slow path (action lists are tiny)
        length, pos = _read_varint(data, pos - 1)
    end = pos + length
    raw = bytes(data[pos:end])
    actions = _ACTIONS_DEC.get(raw)
    if actions is None:
        count, apos = _read_varint(raw, 0)
        decoded = []
        for _ in range(count):
            kind = raw[apos]
            apos += 1
            if kind == 1:
                port, apos = _read_varint(raw, apos)
                decoded.append(OutputAction(port))
            elif kind == 2:
                decoded.append(DropAction())
            elif kind == 3:
                max_len, apos = _read_varint(raw, apos)
                decoded.append(ControllerAction(max_len))
            else:
                raise ValueError(f"unknown action kind {kind}")
        actions = _ACTIONS_DEC[raw] = tuple(decoded)
    return actions, end


#: Match fields in bitmask order; string-valued ones intern through the table.
_MATCH_FIELDS = ("in_port", "eth_src", "eth_dst", "eth_type", "ip_src",
                 "ip_dst", "ip_proto", "tp_src", "tp_dst")
_MATCH_STR = frozenset(("eth_src", "eth_dst", "ip_src", "ip_dst"))


def _encode_match(out: bytearray, match: Match, table: StringTable) -> None:
    raw = table._match_enc.get(match)
    if raw is None:
        tail = bytearray()
        mask = 0
        for bit, name in enumerate(_MATCH_FIELDS):
            value = getattr(match, name)
            if value is None:
                continue
            mask |= 1 << bit
            if name in _MATCH_STR:
                _pack_varint(tail, table.ref(value))
            else:
                _pack_varint(tail, value)
        buf = bytearray()
        _pack_varint(buf, mask)
        buf += tail
        # A byte-length prefix so the decoder can slice the raw bytes and
        # memoise on them without parsing.  Refs are stable once
        # assigned, so the memoised bytes stay valid for the lifetime of
        # this table/direction.
        full = bytearray()
        _pack_varint(full, len(buf))
        full += buf
        raw = table._match_enc[match] = bytes(full)
    out += raw


def _decode_match(data, pos: int, table: StringTable) -> Tuple[Match, int]:
    length = data[pos]
    pos += 1
    if length > 0x7F:  # varint slow path (matches are tiny in practice)
        length, pos = _read_varint(data, pos - 1)
    end = pos + length
    raw = bytes(data[pos:end])
    match = table._match_dec.get(raw)
    if match is None:
        mask, mpos = _read_varint(raw, 0)
        values = [None] * len(_MATCH_FIELDS)
        for bit, name in enumerate(_MATCH_FIELDS):
            if mask & (1 << bit):
                value, mpos = _read_varint(raw, mpos)
                values[bit] = (table.strings[value] if name in _MATCH_STR
                               else value)
        match = table._match_dec[raw] = Match(*values)
    return match, end


def _encode_packet_in(out: bytearray, msg: PacketIn,
                      table: StringTable) -> None:
    _encode_of_base(out, TAG_PACKET_IN, msg)
    out += _PKTIN_TAIL.pack(msg.buffer_id, msg.in_port, msg.data_len,
                            int(msg.reason), 1 if msg.is_retry else 0)
    _encode_item(out, msg.packet, table)


def _decode_packet_in(data, pos, table):
    base, pos = _decode_of_base(data, pos)
    buffer_id, in_port, data_len, reason, retry = \
        _PKTIN_TAIL.unpack_from(data, pos)
    pos += _PKTIN_TAIL.size
    packet, pos = _decode_item(data, pos, table)
    msg = PacketIn.__new__(PacketIn)
    base["packet"] = packet
    base["in_port"] = in_port
    base["buffer_id"] = buffer_id
    base["data_len"] = data_len
    base["reason"] = _PKTIN_REASON[reason]
    base["is_retry"] = bool(retry)
    msg.__dict__ = base
    return msg, pos


def _encode_packet_out(out: bytearray, msg: PacketOut,
                       table: StringTable) -> None:
    _encode_of_base(out, TAG_PACKET_OUT, msg)
    out += _PKTOUT_TAIL.pack(msg.buffer_id, msg.in_port, msg.data_len,
                             0 if msg.packet is None else 1)
    _encode_actions(out, msg.actions)
    if msg.packet is not None:
        _encode_item(out, msg.packet, table)


def _decode_packet_out(data, pos, table):
    base, pos = _decode_of_base(data, pos)
    buffer_id, in_port, data_len, has_packet = \
        _PKTOUT_TAIL.unpack_from(data, pos)
    pos += _PKTOUT_TAIL.size
    actions, pos = _decode_actions(data, pos)
    packet = None
    if has_packet:
        packet, pos = _decode_item(data, pos, table)
    msg = PacketOut.__new__(PacketOut)
    base["actions"] = actions
    base["buffer_id"] = buffer_id
    base["in_port"] = in_port
    base["data_len"] = data_len
    base["packet"] = packet
    msg.__dict__ = base
    return msg, pos


def _encode_flow_mod(out: bytearray, msg: FlowMod,
                     table: StringTable) -> None:
    _encode_of_base(out, TAG_FLOW_MOD, msg)
    out += _FLOWMOD_TAIL.pack(int(msg.command), msg.buffer_id,
                              1 if msg.send_flow_removed else 0,
                              msg.idle_timeout, msg.hard_timeout)
    _pack_varint(out, msg.priority)
    _pack_varint(out, msg.cookie)
    _encode_match(out, msg.match, table)
    _encode_actions(out, msg.actions)


def _decode_flow_mod(data, pos, table):
    base, pos = _decode_of_base(data, pos)
    command, buffer_id, send_removed, idle_timeout, hard_timeout = \
        _FLOWMOD_TAIL.unpack_from(data, pos)
    pos += _FLOWMOD_TAIL.size
    priority, pos = _read_varint(data, pos)
    cookie, pos = _read_varint(data, pos)
    match, pos = _decode_match(data, pos, table)
    actions, pos = _decode_actions(data, pos)
    msg = FlowMod.__new__(FlowMod)
    base["match"] = match
    base["actions"] = actions
    base["command"] = _FLOWMOD_CMD[command]
    base["priority"] = priority
    base["idle_timeout"] = idle_timeout
    base["hard_timeout"] = hard_timeout
    base["buffer_id"] = buffer_id
    base["cookie"] = cookie
    base["send_flow_removed"] = bool(send_removed)
    msg.__dict__ = base
    return msg, pos


def _encode_flow_removed(out, msg: FlowRemoved, table) -> None:
    _encode_of_base(out, TAG_FLOW_REMOVED, msg)
    _encode_match(out, msg.match, table)
    _pack_varint(out, msg.cookie)
    _pack_varint(out, msg.priority)
    _pack_varint(out, msg.reason)
    out += _D.pack(msg.duration)
    _pack_varint(out, msg.packet_count)
    _pack_varint(out, msg.byte_count)


def _decode_flow_removed(data, pos, table):
    base, pos = _decode_of_base(data, pos)
    match, pos = _decode_match(data, pos, table)
    cookie, pos = _read_varint(data, pos)
    priority, pos = _read_varint(data, pos)
    reason, pos = _read_varint(data, pos)
    duration, = _D.unpack_from(data, pos)
    pos += _D.size
    packet_count, pos = _read_varint(data, pos)
    byte_count, pos = _read_varint(data, pos)
    msg = FlowRemoved.__new__(FlowRemoved)
    base["match"] = match
    base["cookie"] = cookie
    base["priority"] = priority
    base["reason"] = reason
    base["duration"] = duration
    base["packet_count"] = packet_count
    base["byte_count"] = byte_count
    msg.__dict__ = base
    return msg, pos


def _make_simple(tag, cls, fields=()):
    """Build codec functions for base + varint-field messages."""

    def encode(out, msg, table):
        _encode_of_base(out, tag, msg)
        for name in fields:
            _pack_varint(out, getattr(msg, name))

    def decode(data, pos, table):
        base, pos = _decode_of_base(data, pos)
        kwargs = {}
        for name in fields:
            kwargs[name], pos = _read_varint(data, pos)
        return cls(**kwargs, **base), pos

    return encode, decode


_enc_hello, _dec_hello = _make_simple(TAG_HELLO, Hello)
_enc_echo_req, _dec_echo_req = _make_simple(
    TAG_ECHO_REQUEST, EchoRequest, ("payload_len",))
_enc_echo_rep, _dec_echo_rep = _make_simple(
    TAG_ECHO_REPLY, EchoReply, ("payload_len",))
_enc_feat_req, _dec_feat_req = _make_simple(
    TAG_FEATURES_REQUEST, FeaturesRequest)
_enc_set_config, _dec_set_config = _make_simple(
    TAG_SET_CONFIG, SetConfig, ("miss_send_len", "flags"))
_enc_get_config_req, _dec_get_config_req = _make_simple(
    TAG_GET_CONFIG_REQUEST, GetConfigRequest)
_enc_get_config_rep, _dec_get_config_rep = _make_simple(
    TAG_GET_CONFIG_REPLY, GetConfigReply, ("miss_send_len", "flags"))
_enc_barrier_req, _dec_barrier_req = _make_simple(
    TAG_BARRIER_REQUEST, BarrierRequest)
_enc_barrier_rep, _dec_barrier_rep = _make_simple(
    TAG_BARRIER_REPLY, BarrierReply)


def _encode_features_reply(out, msg: FeaturesReply, table) -> None:
    _encode_of_base(out, TAG_FEATURES_REPLY, msg)
    _pack_varint(out, msg.datapath_id)
    _pack_varint(out, msg.n_buffers)
    _pack_varint(out, msg.n_tables)
    _pack_varint(out, len(msg.ports))
    for port in msg.ports:
        _pack_varint(out, port)


def _decode_features_reply(data, pos, table):
    base, pos = _decode_of_base(data, pos)
    datapath_id, pos = _read_varint(data, pos)
    n_buffers, pos = _read_varint(data, pos)
    n_tables, pos = _read_varint(data, pos)
    count, pos = _read_varint(data, pos)
    ports = []
    for _ in range(count):
        port, pos = _read_varint(data, pos)
        ports.append(port)
    return FeaturesReply(datapath_id=datapath_id, n_buffers=n_buffers,
                         n_tables=n_tables, ports=tuple(ports), **base), pos


def _encode_error_msg(out, msg: ErrorMsg, table) -> None:
    _encode_of_base(out, TAG_ERROR_MSG, msg)
    _pack_varint(out, int(msg.error_type))
    _pack_varint(out, msg.code)
    _pack_varint(out, msg.context_len)


def _decode_error_msg(data, pos, table):
    base, pos = _decode_of_base(data, pos)
    error_type, pos = _read_varint(data, pos)
    code, pos = _read_varint(data, pos)
    context_len, pos = _read_varint(data, pos)
    return ErrorMsg(error_type=ErrorType(error_type), code=code,
                    context_len=context_len, **base), pos


_ENCODERS = {
    Packet: _encode_packet,
    PacketIn: _encode_packet_in,
    PacketOut: _encode_packet_out,
    FlowMod: _encode_flow_mod,
    FlowRemoved: _encode_flow_removed,
    Hello: _enc_hello,
    EchoRequest: _enc_echo_req,
    EchoReply: _enc_echo_rep,
    FeaturesRequest: _enc_feat_req,
    FeaturesReply: _encode_features_reply,
    SetConfig: _enc_set_config,
    GetConfigRequest: _enc_get_config_req,
    GetConfigReply: _enc_get_config_rep,
    BarrierRequest: _enc_barrier_req,
    BarrierReply: _enc_barrier_rep,
    ErrorMsg: _encode_error_msg,
}

_DECODERS = {
    TAG_PACKET: _decode_packet,
    TAG_PACKET_TCP: _decode_packet,
    TAG_PACKET_IN: _decode_packet_in,
    TAG_PACKET_OUT: _decode_packet_out,
    TAG_FLOW_MOD: _decode_flow_mod,
    TAG_FLOW_REMOVED: _decode_flow_removed,
    TAG_HELLO: _dec_hello,
    TAG_ECHO_REQUEST: _dec_echo_req,
    TAG_ECHO_REPLY: _dec_echo_rep,
    TAG_FEATURES_REQUEST: _dec_feat_req,
    TAG_FEATURES_REPLY: _decode_features_reply,
    TAG_SET_CONFIG: _dec_set_config,
    TAG_GET_CONFIG_REQUEST: _dec_get_config_req,
    TAG_GET_CONFIG_REPLY: _dec_get_config_rep,
    TAG_BARRIER_REQUEST: _dec_barrier_req,
    TAG_BARRIER_REPLY: _dec_barrier_rep,
    TAG_ERROR_MSG: _decode_error_msg,
}

def _encode_item(out: bytearray, item: Any, table: StringTable) -> None:
    """Encode one item, pickle-escaping anything the fast path rejects.

    The rollback covers not just unknown types but unvalidated field
    ranges (an ``identification`` above 0xFFFF, a negative cookie): the
    pack raises, the partial bytes are truncated, and the whole item —
    nested packets included — travels pickled instead.
    """
    mark = len(out)
    try:
        _ENCODERS[type(item)](out, item, table)
        return
    except _FALLBACK_ERRORS:
        del out[mark:]
    raw = pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
    out.append(TAG_PICKLE)
    _pack_varint(out, len(raw))
    out += raw


#: Dense dispatch: tag byte indexes straight into the list.
_DECODER_LIST = [_DECODERS.get(tag) for tag in range(TAG_ERROR_MSG + 1)]


def _decode_item(data, pos: int, table: StringTable) -> Tuple[Any, int]:
    tag = data[pos]
    if tag == TAG_PICKLE:
        length, pos = _read_varint(data, pos + 1)
        return pickle.loads(data[pos:pos + length]), pos + length
    try:
        decoder = _DECODER_LIST[tag]
    except IndexError:
        decoder = None
    if decoder is None:
        raise ValueError(f"unknown item tag {tag} at offset {pos}")
    return decoder(data, pos, table)


# ---------------------------------------------------------------------------
# Rounds and frames
# ---------------------------------------------------------------------------

def _write_prelude(head: bytearray, minted) -> None:
    _pack_varint(head, len(minted))
    for ident, text in minted:
        _pack_varint(head, ident)
        raw = text.encode("utf-8")
        _pack_varint(head, len(raw))
        head += raw


def _read_prelude(data, pos: int) -> Tuple[list, int]:
    minted_count, pos = _read_varint(data, pos)
    minted = []
    for _ in range(minted_count):
        ident, pos = _read_varint(data, pos)
        length, pos = _read_varint(data, pos)
        minted.append(
            (ident, bytes(data[pos:pos + length]).decode("utf-8")))
        pos += length
    return minted, pos


#: Per-message routing header: float64 deliver_time, u16 cut_index,
#: u32 per-link seq, u32 item byte length.  Fixed-shape so routing costs
#: one pack/unpack instead of three varint reads — the whole point of
#: the "timestamped records with a fixed shape" observation.
_MSG_HEAD = Struct("<dHII")


def encode_round(messages, table: StringTable) -> bytes:
    """One round's messages as a contiguous block.

    Layout: varint count of newly-minted strings, each as varint id +
    varint length + UTF-8 bytes; then a varint message count; then per
    message a ``_MSG_HEAD`` routing record followed by the tagged item.
    Items are encoded *first* so the strings they mint land in this
    frame's prelude; the header's byte length is what lets
    :func:`scan_round` slice an item without decoding it.
    """
    body = bytearray()
    scratch = bytearray()
    pack_head = _MSG_HEAD.pack
    _pack_varint(body, len(messages))
    for deliver_time, cut_index, seq, item in messages:
        del scratch[:]
        _encode_item(scratch, item, table)
        body += pack_head(deliver_time, cut_index, seq, len(scratch))
        body += scratch
    head = bytearray()
    _write_prelude(head, table.take_pending())
    return bytes(head + body)


def decode_round(data, table: StringTable,
                 pos: int = 0) -> Tuple[list, int]:
    """Inverse of :func:`encode_round`; returns (messages, end offset)."""
    minted, pos = _read_prelude(data, pos)
    if minted:
        table.absorb(minted)
        table.last_minted = tuple(minted)
    count, pos = _read_varint(data, pos)
    messages = []
    append = messages.append
    unpack_head = _MSG_HEAD.unpack_from
    head_size = _MSG_HEAD.size
    decode_item = _decode_item
    for _ in range(count):
        deliver_time, cut_index, seq, _length = unpack_head(data, pos)
        pos += head_size
        item, pos = decode_item(data, pos, table)
        append((deliver_time, cut_index, seq, item))
    return messages, pos


def scan_round(data, pos: int = 0) -> Tuple[list, list, int]:
    """Parse a round's scalars, keeping every item as raw bytes.

    Returns ``(minted, messages, end offset)`` where each message is
    ``(deliver_time, cut_index, seq, item_bytes)``.  This is the
    coordinator's half of cut-through relay: routing needs only the
    scalars, so the payload is sliced — never decoded — and later
    spliced verbatim into another destination's frame by
    :func:`emit_round`.  The minted pairs are returned (not absorbed)
    so the caller can gossip them to the other destinations.
    """
    minted, pos = _read_prelude(data, pos)
    count, pos = _read_varint(data, pos)
    messages = []
    append = messages.append
    unpack_head = _MSG_HEAD.unpack_from
    head_size = _MSG_HEAD.size
    for _ in range(count):
        deliver_time, cut_index, seq, length = unpack_head(data, pos)
        pos += head_size
        end = pos + length
        append((deliver_time, cut_index, seq, bytes(data[pos:end])))
        pos = end
    return minted, messages, pos


def emit_round(messages, table: StringTable) -> bytes:
    """Frame raw ``(deliver_time, cut_index, seq, item_bytes)`` messages.

    The prelude carries whatever pairs were queued on ``table`` via
    :meth:`StringTable.adopt` — definitions minted by *other* encoders
    that the spliced items reference.  ``table`` never mints here; the
    coordinator only relays.
    """
    body = bytearray()
    pack_head = _MSG_HEAD.pack
    _pack_varint(body, len(messages))
    for deliver_time, cut_index, seq, raw in messages:
        body += pack_head(deliver_time, cut_index, seq, len(raw))
        body += raw
    head = bytearray()
    _write_prelude(head, table.take_pending())
    return bytes(head + body)


KIND_ADVANCE = 1
KIND_REPLY = 2

#: magic, version, kind, flags, time (t_end or next_time).
_FRAME = Struct("<BBBBd")

_FLAG_INCLUSIVE = 1     # advance frames
_FLAG_COMPLETED = 1     # reply frames


def encode_advance(t_end: float, messages, inclusive: bool,
                   table: StringTable) -> bytes:
    """Frame an advance round.  Coordinator-side: ``messages`` are raw
    relay tuples (item bytes), spliced by :func:`emit_round`."""
    flags = _FLAG_INCLUSIVE if inclusive else 0
    return (_FRAME.pack(MAGIC_FRAME, WIRE_VERSION, KIND_ADVANCE, flags,
                        t_end)
            + emit_round(messages, table))


def encode_reply(outbound, next_time: float, completed: Optional[int],
                 table: StringTable) -> bytes:
    """Frame a reply round.  Worker-side: ``outbound`` are real objects,
    encoded against the worker's own namespaced table."""
    head = bytearray(_FRAME.pack(
        MAGIC_FRAME, WIRE_VERSION, KIND_REPLY,
        0 if completed is None else _FLAG_COMPLETED, next_time))
    if completed is not None:
        _pack_varint(head, completed)
    return bytes(head) + encode_round(outbound, table)


def _frame_header(data) -> Tuple[int, int, float, int]:
    magic, version, kind, flags, time_value = _FRAME.unpack_from(data, 0)
    if magic != MAGIC_FRAME:
        raise ValueError(f"bad frame magic 0x{magic:02x}")
    if version != WIRE_VERSION:
        raise ValueError(f"wire version mismatch: frame v{version}, "
                         f"codec v{WIRE_VERSION}")
    return kind, flags, time_value, _FRAME.size


def decode_frame(data, table: StringTable):
    """Decode one frame fully, to the tuple protocol the workers speak.

    Advance frames become ``("advance", t_end, messages, inclusive)``;
    reply frames become ``("advanced", (outbound, next_time,
    completed))`` — messages materialised as real objects either way.
    """
    kind, flags, time_value, pos = _frame_header(data)
    completed = None
    if kind == KIND_REPLY and flags & _FLAG_COMPLETED:
        completed, pos = _read_varint(data, pos)
    messages, pos = decode_round(data, table, pos)
    if pos != len(data):
        raise ValueError(f"trailing bytes in frame: {len(data) - pos}")
    if kind == KIND_ADVANCE:
        return ("advance", time_value, messages, bool(flags
                                                      & _FLAG_INCLUSIVE))
    if kind == KIND_REPLY:
        return ("advanced", (messages, time_value, completed))
    raise ValueError(f"unknown frame kind {kind}")


def scan_frame(data):
    """Scan one frame without decoding payloads (cut-through relay).

    Returns the same tuple protocol as :func:`decode_frame` plus the
    minted pairs: ``("advance", t_end, messages, inclusive, minted)`` or
    ``("advanced", (messages, next_time, completed), minted)`` — with
    every message's item kept as raw bytes.
    """
    kind, flags, time_value, pos = _frame_header(data)
    completed = None
    if kind == KIND_REPLY and flags & _FLAG_COMPLETED:
        completed, pos = _read_varint(data, pos)
    minted, messages, pos = scan_round(data, pos)
    if pos != len(data):
        raise ValueError(f"trailing bytes in frame: {len(data) - pos}")
    if kind == KIND_ADVANCE:
        return ("advance", time_value, messages,
                bool(flags & _FLAG_INCLUSIVE), minted)
    if kind == KIND_REPLY:
        return ("advanced", (messages, time_value, completed), minted)
    raise ValueError(f"unknown frame kind {kind}")


class RelayHub:
    """Fans minted string pairs across the coordinator's channels.

    Each destination registers a gossip :class:`StringTable` (encoder
    half used purely as an :meth:`~StringTable.adopt` queue).  When the
    coordinator scans worker ``i``'s reply, the pairs ``i`` minted are
    published to every *other* destination's queue and ride the prelude
    of its next advance frame.  Cross-shard messages never route back
    to their origin, so the origin itself is skipped.
    """

    def __init__(self) -> None:
        self.tables: List[StringTable] = []

    def register(self) -> StringTable:
        table = StringTable()
        self.tables.append(table)
        return table

    def publish(self, minted, source: int) -> None:
        if not minted:
            return
        for index, table in enumerate(self.tables):
            if index != source:
                table.adopt(minted)


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

@dataclass
class TransportStats:
    """Hot-path accounting for one channel side (advance/reply only)."""

    frames_out: int = 0
    frames_in: int = 0
    bytes_out: int = 0
    bytes_in: int = 0
    encode_seconds: float = 0.0
    decode_seconds: float = 0.0

    def merge(self, other) -> None:
        values = other if isinstance(other, dict) else asdict(other)
        self.frames_out += values["frames_out"]
        self.frames_in += values["frames_in"]
        self.bytes_out += values["bytes_out"]
        self.bytes_in += values["bytes_in"]
        self.encode_seconds += values["encode_seconds"]
        self.decode_seconds += values["decode_seconds"]

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# The channel and its in-process carrier
# ---------------------------------------------------------------------------

class Loopback:
    """One end of an in-process duplex byte pipe (see :func:`loopback_pair`).

    ``send_bytes`` queues onto the peer's inbox and ``recv_bytes`` pops
    this end's own, first in first out: the two calls a
    :class:`ShardChannel` makes of a ``multiprocessing`` connection.
    The protocol is strict request/reply, so a receive always finds the
    message its peer sent just before.
    """

    __slots__ = ("_inbox", "_outbox")

    def __init__(self, inbox: deque, outbox: deque) -> None:
        self._inbox = inbox
        self._outbox = outbox

    def send_bytes(self, data: bytes) -> None:
        self._outbox.append(data)

    def recv_bytes(self) -> bytes:
        return self._inbox.popleft()


def loopback_pair() -> Tuple[Loopback, Loopback]:
    """Two joined :class:`Loopback` ends: what one sends, the other gets."""
    forward, backward = deque(), deque()
    return Loopback(backward, forward), Loopback(forward, backward)


class ShardChannel:
    """One end of the coordinator↔worker wire.

    Everything travels via ``send_bytes``/``recv_bytes`` and the first
    byte dispatches: ``0xF5`` a frame, anything else (pickle streams
    start ``0x80``) a pickled control tuple.  Only advance/reply rounds
    are framed, and only they feed ``stats``.

    The two roles are asymmetric by design.  The ``worker`` role
    materialises objects: it decodes advances fully and encodes its
    outbound against its own namespaced table (ids ``shard_index``,
    ``shard_index + n_shards``, …).  The ``parent`` role never touches
    payloads: replies are *scanned* (scalars parsed, items sliced as
    bytes), minted pairs are published through the :class:`RelayHub`,
    and advances splice the raw items verbatim — cut-through relay.
    """

    def __init__(self, conn, *, role: str = "worker",
                 hub: Optional[RelayHub] = None,
                 shard_index: int = 0, n_shards: int = 1):
        if role not in ("parent", "worker"):
            raise ValueError(f"unknown channel role {role!r}")
        self.conn = conn
        self.role = role
        self.stats = TransportStats()
        self._hub = hub
        self._shard_index = shard_index
        if role == "parent":
            # Gossip queue only: this table never mints, it relays pairs
            # the hub publishes from the *other* workers' replies.
            self._enc = hub.register() if hub is not None else StringTable()
        else:
            self._enc = StringTable(offset=shard_index, stride=n_shards)
        self._dec = StringTable()

    # -- sending --------------------------------------------------------
    def send_control(self, obj) -> None:
        self.conn.send_bytes(pickle.dumps(obj,
                                          protocol=pickle.HIGHEST_PROTOCOL))

    def send_ready(self, next_time: float, outbound) -> None:
        """Announce a built shard, with the messages its adoption sent.

        A control message, pickled like the others; its items are
        encoded first, against this worker's table as a reply's are, so
        the coordinator relays them verbatim.
        """
        self.send_control(("ready",
                           (next_time, encode_round(outbound, self._enc))))

    def send_advance(self, t_end: float, messages, inclusive: bool) -> None:
        start = perf_counter()
        frame = encode_advance(t_end, messages, inclusive, self._enc)
        self.stats.encode_seconds += perf_counter() - start
        self._ship(frame)

    def send_reply(self, outbound, next_time: float,
                   completed: Optional[int]) -> None:
        start = perf_counter()
        frame = encode_reply(outbound, next_time, completed, self._enc)
        self.stats.encode_seconds += perf_counter() - start
        self._ship(frame)

    def _ship(self, frame: bytes) -> None:
        self.stats.frames_out += 1
        self.stats.bytes_out += len(frame)
        self.conn.send_bytes(frame)

    # -- receiving ------------------------------------------------------
    def recv(self):
        data = self.conn.recv_bytes()
        if data[0] == MAGIC_FRAME:
            return self._decode_hot(data)
        obj = pickle.loads(data)
        if obj[0] == "ready":
            next_time, block = obj[1]
            minted, messages, _end = scan_round(block)
            if self._hub is not None:
                self._hub.publish(minted, self._shard_index)
            return ("ready", (next_time, messages))
        return obj

    def _decode_hot(self, frame: bytes):
        start = perf_counter()
        if self.role == "parent":
            scanned = scan_frame(frame)
            minted = scanned[-1]
            if minted and self._hub is not None:
                self._hub.publish(minted, self._shard_index)
            result = scanned[:-1]
        else:
            result = decode_frame(frame, self._dec)
        self.stats.decode_seconds += perf_counter() - start
        self.stats.frames_in += 1
        self.stats.bytes_in += len(frame)
        return result
