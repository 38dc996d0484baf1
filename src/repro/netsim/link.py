"""Point-to-point links with bandwidth, propagation delay and FIFO queueing.

A :class:`Link` is unidirectional: it serializes items one at a time at its
bandwidth, first come first served, then delivers each item to the receive
callback after the propagation delay.  A FIFO single-server transmitter's
finish time is known the moment an item is sent — the Lindley recurrence
``d_k = max(t_k, d_{k-1}) + S_k`` — so the link keeps only the time its
transmitter frees up and each item costs one kernel event, its delivery
(DESIGN.md §20).  A :class:`DuplexLink` is the pair of opposite
directions, which is how the testbed wires host↔switch and
switch↔controller cables.

Links support *taps*: observer callbacks invoked on every transmission,
which is how the tcpdump-like capture layer counts control-path bytes
without the link knowing anything about metrics.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..simkit import Simulator, transmission_delay

#: Receiver signature: receives the transported item.
Receiver = Callable[[Any], None]
#: Tap signature: (time, item, size_bytes).
Tap = Callable[[float, Any, int], None]


class Link:
    """A unidirectional serial link."""

    def __init__(self, sim: Simulator, name: str, bandwidth_bps: float,
                 propagation_delay: float = 5e-6):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if propagation_delay < 0:
            raise ValueError(
                f"propagation delay must be >= 0, got {propagation_delay}")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self._receiver: Optional[Receiver] = None
        self._taps: list[Tap] = []
        self._idle_listeners: list[Callable[[], None]] = []
        #: Partition seam (``repro.shard``).  When set, each sent item
        #: leaves the local event loop at send time as a
        #: ``(delivery_time, item)`` pair instead of being scheduled for
        #: local delivery; ``None`` keeps the serial path.
        self._outbound: Optional[Callable[[float, Any], None]] = None
        #: When the transmitter finishes the last item sent so far.
        self._free_at = sim.now
        #: Transmit time booked for every item sent so far.
        self._booked = 0.0
        self._accounting_start = sim.now
        #: Cumulative bytes and items accepted for transmission.
        self.bytes_sent = 0
        self.items_sent = 0

    def connect(self, receiver: Receiver) -> None:
        """Attach the receiving end.  Must be called before any send."""
        self._receiver = receiver

    def add_tap(self, tap: Tap) -> None:
        """Observe every transmission (called when the item is sent)."""
        self._taps.append(tap)

    def add_idle_listener(self, listener: Callable[[], None]) -> None:
        """Notify ``listener`` whenever the transmitter drains.

        Used by egress schedulers that hold their own queues and hand the
        link exactly one frame at a time.  Only a link with listeners
        pays an event at each transmit end, for frames sent after the
        listener was added.
        """
        self._idle_listeners.append(listener)

    def send(self, item: Any, size_bytes: int) -> None:
        """Queue ``item`` for transmission; delivery is asynchronous."""
        if self._receiver is None:
            raise RuntimeError(f"link {self.name!r} has no receiver connected")
        if size_bytes <= 0:
            raise ValueError(f"size must be positive, got {size_bytes}")
        self.bytes_sent += size_bytes
        self.items_sent += 1
        sim = self.sim
        now = sim._now
        if self._taps:
            for tap in self._taps:
                tap(now, item, size_bytes)
        service = transmission_delay(size_bytes, self.bandwidth_bps)
        free_at = self._free_at
        # Serialization starts once both the item and the transmitter
        # are ready.  Keep this one addition of these operands: delivery
        # times must equal a FIFO station's bit for bit (DESIGN.md §20).
        done = (free_at if free_at > now else now) + service
        self._free_at = done
        self._booked += service
        if self._idle_listeners:
            sim.schedule_at(done, self._drained, done)
        if self._outbound is not None:
            # Cut link: the receiver lives in another shard.  Hand the
            # item (stamped with its physical delivery time) to the shard
            # runtime; serialization, taps and byte accounting above all
            # happened sender-side exactly as in the serial path.
            self._outbound(done + self.propagation_delay, item)
        else:
            sim.schedule_at(done + self.propagation_delay, self._deliver,
                            item)

    def _drained(self, done: float) -> None:
        # Nothing was sent behind the frame that finished at ``done``.
        if self._free_at == done:
            for listener in self._idle_listeners:
                listener()

    def _deliver(self, item: Any) -> None:
        assert self._receiver is not None
        self._receiver(item)

    def utilization_percent(self) -> float:
        """Share of the time since creation spent transmitting, in percent.

        Counts the elapsed part of every booked transmission, the frame
        in flight included: booked time minus what still lies ahead of
        the clock.
        """
        now = self.sim._now
        wall = now - self._accounting_start
        if wall <= 0:
            return 0.0
        ahead = self._free_at - now
        busy = self._booked - ahead if ahead > 0 else self._booked
        return 100.0 * busy / wall

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Link({self.name!r}, {self.bandwidth_bps / 1e6:.0f}Mbps, "
                f"free_at={self._free_at:.9f})")


class DuplexLink:
    """Two opposite :class:`Link` directions forming one cable."""

    def __init__(self, sim: Simulator, name: str, bandwidth_bps: float,
                 propagation_delay: float = 5e-6):
        self.name = name
        self.forward = Link(sim, f"{name}.fwd", bandwidth_bps,
                            propagation_delay)
        self.reverse = Link(sim, f"{name}.rev", bandwidth_bps,
                            propagation_delay)

    def connect(self, forward_receiver: Receiver,
                reverse_receiver: Receiver) -> None:
        """Attach both ends: forward delivers to one, reverse to the other."""
        self.forward.connect(forward_receiver)
        self.reverse.connect(reverse_receiver)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DuplexLink({self.name!r})"
