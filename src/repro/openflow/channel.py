"""The control channel: OpenFlow messages over a (possibly shared) link.

Control messages ride a TCP connection over a real cable, so each message
pays Ethernet + IP + TCP encapsulation on the wire — tcpdump on the
controller interface sees those bytes, and so does the paper's
control-path-load metric.  The channel stamps ``sent_at`` on every message
(the raw timestamp for the controller-delay metric) and delivers through
the underlying :class:`~repro.netsim.link.DuplexLink`, inheriting its
bandwidth contention and FIFO queueing.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..netsim import DuplexLink
from ..simkit import Simulator
from .messages import OFMessage

#: Ethernet(14) + IPv4(20) + TCP(20) encapsulation per control message.
#: (Nagle batching would amortize this; modelling per-message keeps the
#: capture arithmetic transparent and is what tcpdump shows with TCP_NODELAY,
#: which both OVS and Floodlight set on the OpenFlow connection.)
DEFAULT_ENCAPSULATION_OVERHEAD = 54

MessageHandler = Callable[[OFMessage], None]

#: A fault filter sits between wire delivery and the bound handler:
#: it receives ``(message, deliver)`` and decides whether/how to call
#: ``deliver(message)`` — possibly never (loss), twice (duplication),
#: or later via the simulator (jitter).  See :mod:`repro.faults`.
FaultFilter = Callable[[OFMessage, MessageHandler], None]


class ControlChannel:
    """Bidirectional OpenFlow message transport between one switch and
    one controller."""

    def __init__(self, sim: Simulator, cable: DuplexLink,
                 encapsulation_overhead: int = DEFAULT_ENCAPSULATION_OVERHEAD):
        if encapsulation_overhead < 0:
            raise ValueError("encapsulation overhead must be >= 0")
        self.sim = sim
        self.cable = cable
        self.encapsulation_overhead = encapsulation_overhead
        self._switch_handler: Optional[MessageHandler] = None
        self._controller_handler: Optional[MessageHandler] = None
        # forward = switch -> controller; reverse = controller -> switch.
        cable.forward.connect(self._deliver_to_controller)
        cable.reverse.connect(self._deliver_to_switch)
        #: Message counters per direction.
        self.to_controller_count = 0
        self.to_switch_count = 0
        # Optional fault filters (installed by repro.faults); None keeps
        # the historical zero-overhead delivery path.
        self._fault_to_controller: Optional[FaultFilter] = None
        self._fault_to_switch: Optional[FaultFilter] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_switch(self, handler: MessageHandler) -> None:
        """Messages from the controller are delivered to ``handler``."""
        self._switch_handler = handler

    def bind_controller(self, handler: MessageHandler) -> None:
        """Messages from the switch are delivered to ``handler``."""
        self._controller_handler = handler

    def install_fault_filters(
            self, to_controller: Optional[FaultFilter] = None,
            to_switch: Optional[FaultFilter] = None) -> None:
        """Route deliveries through per-direction fault filters.

        A filter receives every message that completed its wire transit
        in that direction, plus the dispatch callable; it decides how
        many times (and when) to invoke it.  Passing ``None`` leaves a
        direction's existing filter in place.
        """
        if to_controller is not None:
            self._fault_to_controller = to_controller
        if to_switch is not None:
            self._fault_to_switch = to_switch

    def unwire(self) -> None:
        """Drop both handlers and both fault filters (end of run)."""
        self._switch_handler = self._controller_handler = None
        self._fault_to_controller = self._fault_to_switch = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def wire_size(self, message: OFMessage) -> int:
        """Bytes the message occupies on the cable."""
        return message.wire_len + self.encapsulation_overhead

    def send_to_controller(self, message: OFMessage) -> None:
        """Switch-side send."""
        if self._controller_handler is None:
            raise RuntimeError("controller handler not bound")
        message.sent_at = self.sim.now
        self.to_controller_count += 1
        self.cable.forward.send(message, self.wire_size(message))

    def send_to_switch(self, message: OFMessage) -> None:
        """Controller-side send."""
        if self._switch_handler is None:
            raise RuntimeError("switch handler not bound")
        message.sent_at = self.sim.now
        self.to_switch_count += 1
        self.cable.reverse.send(message, self.wire_size(message))

    def _deliver_to_controller(self, message: OFMessage) -> None:
        assert self._controller_handler is not None
        if self._fault_to_controller is not None:
            self._fault_to_controller(message, self._dispatch_to_controller)
        else:
            self._dispatch_to_controller(message)

    def _deliver_to_switch(self, message: OFMessage) -> None:
        assert self._switch_handler is not None
        if self._fault_to_switch is not None:
            self._fault_to_switch(message, self._dispatch_to_switch)
        else:
            self._dispatch_to_switch(message)

    def _dispatch_to_controller(self, message: OFMessage) -> None:
        # Re-read the handler at dispatch time: a jittered delivery may
        # land after the handler was rebound.
        self._controller_handler(message)

    def _dispatch_to_switch(self, message: OFMessage) -> None:
        self._switch_handler(message)
