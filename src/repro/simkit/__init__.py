"""Discrete-event simulation kernel used by every other subpackage.

Everything runs as callbacks on one clock.  Public surface:

* :class:`Simulator` — the clock and event heap; ``schedule`` returns a
  cancellable :class:`ScheduledCall`, and ``reserve`` a
  :class:`Reservation` of sequence numbers that a traffic source
  spends one queued send at a time.
* :class:`ServiceStation` — FIFO queueing stations with busy-time
  (CPU-utilization) accounting; a job is the arguments of its
  completion call, scheduled or waiting in the queue.
* :class:`ArithmeticTimes` — a lazy arithmetic send-time sequence (the
  hybrid engine's lazy per-flow tails).
* :class:`EventEmitter` — synchronous named-event publish/subscribe.
* :class:`RandomStreams` — deterministic named RNG substreams.
* :mod:`units <repro.simkit.units>` helpers (``mbps``, ``msec``, ...).
"""

from .aggregates import ArithmeticTimes
from .callbacks import EventEmitter
from .errors import SchedulingError, SimkitError
from .rng import RandomStreams
from .simulator import (PRIORITY_LATE, PRIORITY_NORMAL, PRIORITY_URGENT,
                        Reservation, ScheduledCall, Simulator)
from .stations import ServiceStation
from .units import (BITS_PER_BYTE, GBPS, KBPS, KBYTE, MBPS, MBYTE, MSEC,
                    USEC, bits, gbps, kbps, mbps, msec, to_mbps, to_msec,
                    transmission_delay, usec)

__all__ = [
    "ArithmeticTimes",
    "EventEmitter",
    "RandomStreams",
    "Reservation", "ScheduledCall", "Simulator",
    "PRIORITY_LATE", "PRIORITY_NORMAL", "PRIORITY_URGENT",
    "ServiceStation",
    "SimkitError", "SchedulingError",
    "BITS_PER_BYTE", "KBPS", "MBPS", "GBPS", "USEC", "MSEC", "KBYTE",
    "MBYTE", "bits", "kbps", "mbps", "gbps", "usec", "msec", "to_mbps",
    "to_msec", "transmission_delay",
]
