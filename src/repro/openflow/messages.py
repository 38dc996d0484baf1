"""OpenFlow control messages with realistic wire sizes.

The paper's entire benefits analysis hinges on *message sizes*: without a
switch buffer, the full miss-match frame rides inside ``packet_in`` and
``packet_out``; with the buffer, ``packet_in`` carries at most
``miss_send_len`` bytes of the frame plus a ``buffer_id``, and
``packet_out`` carries only the ``buffer_id`` and an output action.  Every
message type therefore computes its own ``wire_len`` from OpenFlow 1.0
structure sizes; the control-path-load figures are integrals of these.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..packets import Packet
from .actions import Action, actions_wire_len
from .constants import (OFP_FLOW_MOD_FIXED, OFP_HEADER_LEN, OFP_NO_BUFFER,
                        OFP_PACKET_IN_FIXED, OFP_PACKET_OUT_FIXED,
                        ErrorType, FlowModCommand, PacketInReason)
from .match import Match

#: Transaction-id source shared by all messages in the process.
_xids = itertools.count(1)


def next_xid() -> int:
    """Allocate a fresh OpenFlow transaction id."""
    return next(_xids)


@dataclass
class OFMessage:
    """Common base: every message has an xid and a wire size."""

    #: Short lowercase message name used in captures and traces, set
    #: once per class (a class attribute, not a dataclass field).
    kind = "ofmessage"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.kind = cls.__name__.lower()

    xid: int = field(default_factory=next_xid, kw_only=True)
    #: Simulated send timestamp, stamped by the control channel.
    sent_at: Optional[float] = field(default=None, kw_only=True)
    #: For controller replies: the xid of the packet_in being answered.
    #: Not an OpenFlow wire field — measurement bookkeeping only, used to
    #: attribute flow_mod/packet_out arrivals to their request for the
    #: paper's controller-delay metric (§III.B).
    in_reply_to: Optional[int] = field(default=None, kw_only=True)

    @property
    def wire_len(self) -> int:
        """Total bytes on the wire including the common header."""
        return OFP_HEADER_LEN + self.body_len

    @property
    def body_len(self) -> int:
        """Bytes after the common header; subclasses override."""
        return 0


@dataclass
class Hello(OFMessage):
    """Version negotiation greeting."""


@dataclass
class EchoRequest(OFMessage):
    """Liveness probe (controller → switch or vice versa)."""

    payload_len: int = 0

    @property
    def body_len(self) -> int:
        return self.payload_len


@dataclass
class EchoReply(OFMessage):
    """Reply to an :class:`EchoRequest` (mirrors its payload)."""

    payload_len: int = 0

    @property
    def body_len(self) -> int:
        return self.payload_len


@dataclass
class FeaturesRequest(OFMessage):
    """Ask the switch for its datapath features."""


@dataclass
class FeaturesReply(OFMessage):
    """Datapath id, port inventory, and buffer capacity.

    ``n_buffers`` is how real switches advertise the packet buffer the
    paper studies; the controller reads it to decide whether buffer-based
    operation is possible at all.
    """

    datapath_id: int = 0
    n_buffers: int = 0
    n_tables: int = 1
    ports: Tuple[int, ...] = ()

    @property
    def body_len(self) -> int:
        return 24 + 48 * len(self.ports)  # ofp_switch_features + ofp_phy_port


@dataclass
class PacketIn(OFMessage):
    """Switch → controller: a packet needs a forwarding decision.

    ``data_len`` is the number of frame bytes enclosed: the full frame when
    the packet is not buffered (``buffer_id == OFP_NO_BUFFER``), otherwise
    at most ``miss_send_len`` header bytes.
    """

    packet: Packet = None  # type: ignore[assignment]
    in_port: int = 0
    buffer_id: int = OFP_NO_BUFFER
    data_len: int = 0
    reason: PacketInReason = PacketInReason.NO_MATCH
    #: True when this is an Algorithm-1 line-13 re-request after timeout.
    is_retry: bool = False

    def __post_init__(self) -> None:
        if self.packet is None:
            raise ValueError("PacketIn requires the triggering packet")
        if self.data_len < 0:
            raise ValueError(f"data_len must be >= 0, got {self.data_len}")

    @property
    def body_len(self) -> int:
        return OFP_PACKET_IN_FIXED + self.data_len

    @property
    def total_len(self) -> int:
        """Original full frame length (the ofp_packet_in total_len field)."""
        return self.packet.wire_len

    @property
    def is_buffered(self) -> bool:
        """True if the frame stayed in the switch buffer."""
        return self.buffer_id != OFP_NO_BUFFER


@dataclass
class PacketOut(OFMessage):
    """Controller → switch: emit a packet (buffered or enclosed)."""

    actions: Tuple[Action, ...] = ()
    buffer_id: int = OFP_NO_BUFFER
    in_port: int = 0
    #: Frame bytes enclosed; must be 0 when referencing a buffer_id and the
    #: full frame length otherwise.
    data_len: int = 0
    #: The frame being re-emitted when not buffered (identity preserved so
    #: the switch can transmit the *same* packet object downstream).
    packet: Optional[Packet] = None

    def __post_init__(self) -> None:
        if self.buffer_id == OFP_NO_BUFFER and self.packet is None:
            raise ValueError(
                "unbuffered PacketOut must enclose the packet data")
        if self.buffer_id != OFP_NO_BUFFER and self.data_len != 0:
            raise ValueError(
                "buffered PacketOut must not enclose packet data")

    @property
    def body_len(self) -> int:
        return (OFP_PACKET_OUT_FIXED + actions_wire_len(self.actions)
                + self.data_len)

    @property
    def is_buffered(self) -> bool:
        """True if this releases a switch-buffered frame."""
        return self.buffer_id != OFP_NO_BUFFER


@dataclass
class FlowMod(OFMessage):
    """Controller → switch: install/modify/delete a flow entry."""

    match: Match = field(default_factory=Match)
    actions: Tuple[Action, ...] = ()
    command: FlowModCommand = FlowModCommand.ADD
    priority: int = 0x8000
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    #: Optional buffer_id: per the OpenFlow spec a flow_mod may itself apply
    #: to a buffered packet, releasing it through the new rule.
    buffer_id: int = OFP_NO_BUFFER
    cookie: int = 0
    #: OFPFF_SEND_FLOW_REM: emit a FlowRemoved when this rule dies.
    send_flow_removed: bool = False

    @property
    def body_len(self) -> int:
        # OFP_FLOW_MOD_FIXED already includes the 40-byte ofp_match.
        return OFP_FLOW_MOD_FIXED + actions_wire_len(self.actions)


@dataclass
class SetConfig(OFMessage):
    """Controller → switch: set ``miss_send_len`` (and flags).

    This is how a real controller chooses how many bytes of each buffered
    miss-match packet it wants to see — the paper's "depends on how to
    configure the parameter of the pkt_in message" (§IV).
    """

    miss_send_len: int = 128
    flags: int = 0

    def __post_init__(self) -> None:
        if self.miss_send_len < 0:
            raise ValueError(
                f"miss_send_len must be >= 0, got {self.miss_send_len}")

    @property
    def body_len(self) -> int:
        return 4        # ofp_switch_config minus the header


@dataclass
class GetConfigRequest(OFMessage):
    """Controller → switch: read the current switch configuration."""


@dataclass
class GetConfigReply(OFMessage):
    """Switch → controller: current ``miss_send_len`` and flags."""

    miss_send_len: int = 128
    flags: int = 0

    @property
    def body_len(self) -> int:
        return 4


@dataclass
class FlowRemoved(OFMessage):
    """Switch → controller: a rule expired or was evicted.

    Sent only for rules installed with ``send_flow_removed`` set — how
    controllers keep their view of the flow table consistent, and how
    rule-eviction-aware apps (the §VI.B TCP discussion) would learn that
    a live connection lost its rule.
    """

    match: Match = field(default_factory=Match)
    cookie: int = 0
    priority: int = 0
    reason: int = 0                     # 0 idle, 1 hard, 2 delete/evict
    duration: float = 0.0
    packet_count: int = 0
    byte_count: int = 0

    @property
    def body_len(self) -> int:
        return 80       # ofp_flow_removed minus the header (OF 1.0)


@dataclass
class BarrierRequest(OFMessage):
    """Controller → switch: flush ordering barrier."""


@dataclass
class BarrierReply(OFMessage):
    """Switch → controller: all messages before the barrier are done."""


@dataclass(frozen=True)
class FlowStatsEntry:
    """One rule's statistics inside a :class:`FlowStatsReply`."""

    match: Match
    priority: int
    duration: float
    packet_count: int
    byte_count: int

    #: Wire size of one ofp_flow_stats record (OF 1.0, one output action).
    WIRE_LEN = 96


@dataclass
class FlowStatsRequest(OFMessage):
    """Controller → switch: statistics of rules covered by ``match``.

    The cost-optimized wildcard collection schemes the paper cites ([31])
    are built from exactly these requests.
    """

    match: Match = field(default_factory=Match)

    @property
    def body_len(self) -> int:
        return 12 + self.match.wire_len     # stats header + ofp_flow_stats_request


@dataclass
class FlowStatsReply(OFMessage):
    """Switch → controller: the requested per-rule statistics."""

    entries: Tuple[FlowStatsEntry, ...] = ()

    @property
    def body_len(self) -> int:
        return 12 + FlowStatsEntry.WIRE_LEN * len(self.entries)


@dataclass(frozen=True)
class PortStatsEntry:
    """One port's counters inside a :class:`PortStatsReply`."""

    port_no: int
    rx_packets: int
    tx_packets: int
    rx_bytes: int
    tx_bytes: int
    tx_dropped: int

    #: Wire size of one ofp_port_stats record (OF 1.0).
    WIRE_LEN = 104


@dataclass
class PortStatsRequest(OFMessage):
    """Controller → switch: counters for one port (or all: 0xFFFF)."""

    port_no: int = 0xFFFF

    @property
    def body_len(self) -> int:
        return 12 + 8        # stats header + ofp_port_stats_request


@dataclass
class PortStatsReply(OFMessage):
    """Switch → controller: the requested port counters."""

    entries: Tuple[PortStatsEntry, ...] = ()

    @property
    def body_len(self) -> int:
        return 12 + PortStatsEntry.WIRE_LEN * len(self.entries)


@dataclass
class ErrorMsg(OFMessage):
    """Switch → controller: something went wrong."""

    error_type: ErrorType = ErrorType.BAD_REQUEST
    code: int = 0
    #: First bytes of the offending message are echoed back on the wire.
    context_len: int = 64

    @property
    def body_len(self) -> int:
        return 4 + self.context_len
