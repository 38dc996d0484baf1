"""The simulated packet — the unit that traverses hosts, links, switches.

A :class:`Packet` is a mutable container of immutable headers plus a payload
*length* (payload bytes are never materialized; only sizes matter to the
testbed model).  It also carries measurement fields written by the metrics
layer: when it was created, when it entered and left the switch — the raw
material for the paper's flow-setup-delay and forwarding-delay definitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from .ethernet import MIN_FRAME, EthernetHeader
from .flowkey import FiveTuple
from .ipv4 import IPv4Header
from .tcp import TCPHeader
from .udp import UDPHeader

#: Monotonic packet-id source; unique across all simulations in-process.
_packet_ids = itertools.count(1)

#: Sentinel for "five_tuple not computed yet" (None is a legitimate value).
_UNSET = object()

L4Header = Union[UDPHeader, TCPHeader]


@dataclass
class Packet:
    """A frame on the wire.

    ``payload_len`` is the application payload size in bytes; the wire size
    adds the header stack and enforces the Ethernet minimum frame size.
    """

    eth: EthernetHeader
    ip: Optional[IPv4Header] = None
    l4: Optional[L4Header] = None
    payload_len: int = 0
    #: Workload bookkeeping: which generated flow this packet belongs to and
    #: its position inside that flow (0-based).  ``None`` for control-plane
    #: or hand-built packets.
    flow_id: Optional[int] = None
    seq_in_flow: Optional[int] = None
    #: Measurement timestamps (seconds of simulated time), written by the
    #: traffic generator and the switch ports respectively.
    created_at: Optional[float] = None
    switch_in_at: Optional[float] = None
    switch_out_at: Optional[float] = None
    #: Unique identity (assigned automatically).
    uid: int = field(default_factory=lambda: next(_packet_ids))
    #: Lookup-key caches (headers are immutable, so these never go stale;
    #: a header-level copy shares them safely).  ``_exact_key[0]`` is the
    #: in_port it was computed for, so a port change recomputes it.
    _exact_key: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False)
    _five_tuple: object = field(
        default=_UNSET, init=False, repr=False, compare=False)
    _wire_len: Optional[int] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.payload_len < 0:
            raise ValueError(f"payload_len must be >= 0, got {self.payload_len}")
        if self.l4 is not None and self.ip is None:
            raise ValueError("an L4 header requires an IP header")

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def header_len(self) -> int:
        """Total header bytes across the stack."""
        total = self.eth.header_len
        if self.ip is not None:
            total += self.ip.header_len
        if self.l4 is not None:
            total += self.l4.header_len
        return total

    @property
    def wire_len(self) -> int:
        """Frame size on the wire (headers + payload, >= Ethernet minimum).

        Cached on first use: every hop (links, buffer accounting, rule
        byte counters) asks for the size, and the header stack and
        payload length never change once a packet is on the wire.
        """
        size = self._wire_len
        if size is None:
            size = self._wire_len = max(
                self.header_len + self.payload_len, MIN_FRAME)
        return size

    def leading_bytes(self, count: int) -> int:
        """Bytes actually available when truncating to ``count``.

        Used to size the data portion of a ``packet_in`` under a
        ``miss_send_len`` configuration: a request asking for 128 bytes of a
        60-byte frame only gets 60.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return min(count, self.wire_len)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def five_tuple(self) -> Optional[FiveTuple]:
        """The flow key, or ``None`` for non-IP traffic.  Cached."""
        key = self._five_tuple
        if key is _UNSET:
            key = self._five_tuple = FiveTuple.from_packet(self)
        return key

    def replay_copy(self) -> "Packet":
        """A header-sharing copy that keeps ``uid`` and clears the stamps.

        How a run replays a workload's template packets: the copy is the
        one the switch and the metrics layer stamp, so a template can be
        replayed by any number of runs and never carries one run's
        ``created_at`` into the next.  Headers are immutable and the
        lookup-key caches derive only from them (and the payload length),
        so both are shared, not rebuilt.
        """
        clone = object.__new__(type(self))
        state = clone.__dict__
        state.update(self.__dict__)
        state["created_at"] = state["switch_in_at"] = \
            state["switch_out_at"] = None
        return clone

    def fresh_copy(self) -> "Packet":
        """A :meth:`replay_copy` with its own identity.

        A replay copy keeps ``uid``, which would confuse any uid-keyed
        observer if both copies were live in one run (the delay tracker
        identifies a flow's first packet by uid).  Workloads that mint
        *new* logical packets from a template — the hybrid engine's lazy
        tails — use this instead.
        """
        clone = self.replay_copy()
        clone.uid = next(_packet_ids)
        return clone

    def exact_key(self, in_port: int) -> tuple:
        """The key a fully-exact flow entry for this packet would have.

        Computed once per (packet, in_port) and cached on the packet, so
        the datapath's cache probe, table lookup, and cache store all hash
        the same tuple instead of rebuilding it with attribute chasing.
        """
        key = self._exact_key
        if key is not None and key[0] == in_port:
            return key
        ip = self.ip
        l4 = self.l4
        eth = self.eth
        key = (in_port, eth.src_mac, eth.dst_mac, eth.ethertype,
               ip.src_ip if ip is not None else None,
               ip.dst_ip if ip is not None else None,
               ip.protocol if ip is not None else None,
               l4.src_port if l4 is not None else None,
               l4.dst_port if l4 is not None else None)
        self._exact_key = key
        return key

    @property
    def is_udp(self) -> bool:
        """True if this packet carries a UDP header."""
        return isinstance(self.l4, UDPHeader)

    @property
    def is_tcp(self) -> bool:
        """True if this packet carries a TCP header."""
        return isinstance(self.l4, TCPHeader)

    def __str__(self) -> str:
        pieces = [f"#{self.uid}", str(self.eth)]
        if self.ip is not None:
            pieces.append(str(self.ip))
        if self.l4 is not None:
            pieces.append(str(self.l4))
        pieces.append(f"len {self.wire_len}")
        return " | ".join(pieces)
