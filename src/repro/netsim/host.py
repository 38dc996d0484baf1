"""End hosts.

A :class:`Host` owns one NIC-like attachment to a link pair: it can send
packets toward the switch and receives packets delivered by the switch.
It counts what it sends and receives and keeps no packet; a receive
hook sees each delivered packet as it arrives.  (The metrics layer
measures flow-setup and forwarding delays at the switches' event
emitters, not here.)
"""

from __future__ import annotations

from typing import Callable, Optional

from ..packets import Packet
from ..simkit import Simulator
from .link import Link

#: Optional extra receive hook: (time, packet).
ReceiveHook = Callable[[float, Packet], None]


class Host:
    """A simulated end host with one network interface."""

    def __init__(self, sim: Simulator, name: str, mac: str, ip: str):
        self.sim = sim
        self.name = name
        self.mac = mac
        self.ip = ip
        self._tx_link: Optional[Link] = None
        self._receive_hooks: list[ReceiveHook] = []
        self.packets_received = 0
        self.bytes_received = 0
        self.packets_sent = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, tx_link: Link) -> None:
        """Use ``tx_link`` for outbound packets."""
        self._tx_link = tx_link

    def add_receive_hook(self, hook: ReceiveHook) -> None:
        """Observe every received packet."""
        self._receive_hooks.append(hook)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Transmit a packet out the host's interface."""
        if self._tx_link is None:
            raise RuntimeError(f"host {self.name!r} is not attached to a link")
        if packet.created_at is None:
            packet.created_at = self.sim.now
        self.packets_sent += 1
        self._tx_link.send(packet, packet.wire_len)

    def receive(self, packet: Packet) -> None:
        """Delivery callback wired to the inbound link."""
        self.packets_received += 1
        self.bytes_received += packet.wire_len
        for hook in self._receive_hooks:
            hook(self.sim.now, packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name!r}, mac={self.mac}, ip={self.ip})"
