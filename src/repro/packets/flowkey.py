"""Flow identification — the 5-tuple the paper's Algorithm 1 keys on.

The flow-granularity buffer mechanism computes one ``buffer_id`` per flow
"based on the tuple of (src_ip, src_port, dst_ip, dst_port, protocol)"
(paper §V.A).  :class:`FiveTuple` is that key: hashable, immutable, and
derivable from any packet carrying IP + L4 headers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .ipv4 import proto_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .packet import Packet

#: Interned keys: one FiveTuple object per distinct 5-tuple, so the
#: per-packet dict probes in the flow table and Algorithm 1's buffer map
#: hash an already-constructed object with a cached hash.  Bounded so a
#: long-lived process sweeping many workloads cannot grow it forever.
_INTERN_MAX = 1 << 16
_interned: dict = {}


def _intern(values: tuple) -> "FiveTuple":
    """The one key of these field values, interned while there is room."""
    key = _interned.get(values)
    if key is None:
        key = FiveTuple(*values)
        if len(_interned) < _INTERN_MAX:
            _interned[values] = key
    return key


@dataclass(frozen=True)
class FiveTuple:
    """The canonical (src_ip, src_port, dst_ip, dst_port, protocol) key."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(
            (self.src_ip, self.src_port, self.dst_ip, self.dst_port,
             self.protocol)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Pickle the fields only: the cached hash is a string hash, which
        # differs between interpreters with different hash seeds, so a
        # loaded key rehashes (and re-interns) where it lands.
        return (_intern, ((self.src_ip, self.src_port, self.dst_ip,
                           self.dst_port, self.protocol),))

    @classmethod
    def from_packet(cls, packet: "Packet") -> Optional["FiveTuple"]:
        """Extract the 5-tuple, or ``None`` for non-IP / portless packets.

        Keys are interned: repeat extractions of the same 5-tuple return
        the same object.
        """
        ip = packet.ip
        l4 = packet.l4
        if ip is None or l4 is None:
            return None
        return _intern((ip.src_ip, l4.src_port, ip.dst_ip, l4.dst_port,
                        ip.protocol))

    def reversed(self) -> "FiveTuple":
        """The key of the opposite direction of the same conversation."""
        return FiveTuple(src_ip=self.dst_ip, src_port=self.dst_port,
                         dst_ip=self.src_ip, dst_port=self.src_port,
                         protocol=self.protocol)

    def __str__(self) -> str:
        return (f"{proto_name(self.protocol)} "
                f"{self.src_ip}:{self.src_port} > "
                f"{self.dst_ip}:{self.dst_port}")
