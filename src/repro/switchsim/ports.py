"""Switch ports: the attachment points between links and the datapath."""

from __future__ import annotations

from typing import Callable, Optional

from ..netsim import Link
from ..packets import Packet
from ..simkit import Simulator


class SwitchPort:
    """One numbered port with an egress link and ingress wiring helper."""

    def __init__(self, sim: Simulator, port_no: int, name: str = ""):
        if port_no < 0:
            raise ValueError(f"port_no must be >= 0, got {port_no}")
        self.sim = sim
        self.port_no = port_no
        self.name = name or f"port{port_no}"
        self._egress_link: Optional[Link] = None
        #: Where arriving packets go, as ``deliver(packet, port_no)``.
        self._deliver: Optional[Callable[[Packet, int], None]] = None
        #: Optional egress scheduler (see :mod:`repro.switchsim.qos`);
        #: when set, transmissions flow through its class queues.
        self._scheduler = None
        #: Counters.
        self.rx_packets = 0
        self.rx_bytes = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        self.tx_drops = 0

    def attach_egress(self, link: Link) -> None:
        """Outbound packets leave through ``link``."""
        self._egress_link = link

    def wire_ingress(self, link: Link,
                     deliver: Callable[[Packet, int], None]) -> None:
        """Deliver packets arriving on ``link`` to ``deliver(pkt, port_no)``."""
        self._deliver = deliver
        link.connect(self._ingress)

    def _ingress(self, packet: Packet) -> None:
        self.rx_packets += 1
        self.rx_bytes += packet.wire_len
        self._deliver(packet, self.port_no)

    def unwire(self) -> None:
        """Drop the ingress callback (end of run): it leads back to the
        datapath that holds this port."""
        self._deliver = None

    def set_scheduler(self, scheduler) -> None:
        """Route egress through a QoS scheduler instead of plain FIFO."""
        self._scheduler = scheduler

    def transmit(self, packet: Packet) -> None:
        """Send ``packet`` out the egress link (via the scheduler if set)."""
        if self._egress_link is None:
            self.tx_drops += 1
            return
        self.tx_packets += 1
        self.tx_bytes += packet.wire_len
        if self._scheduler is not None:
            if not self._scheduler.enqueue(packet):
                self.tx_drops += 1
        else:
            self._egress_link.send(packet, packet.wire_len)

    @property
    def has_egress(self) -> bool:
        """True once an egress link is attached."""
        return self._egress_link is not None

    @property
    def egress_link(self) -> Optional[Link]:
        """The attached egress link, if any."""
        return self._egress_link

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SwitchPort({self.port_no}, rx={self.rx_packets}, "
                f"tx={self.tx_packets})")
