"""Host-speed sampling, and timing that is scaled by it.

The benchmark's host is a small VM on a shared machine: the same pass
takes up to 1.8x longer from one second to the next, with no steal time
to show for it, and CPU time rises with wall time.  So while a timed
region runs, a fixed pure-Python reference loop — a small discrete-event
loop over a heap, slotted objects and dict lookups, the kind of work
the simulator does — is timed every ``INTERVAL_S`` from a ``SIGALRM``
handler, and once just before and once just after the region.  Each
such probe gives the host's *slowdown* at that moment: its seconds per
event over ``REFERENCE_EVENT_S``.  The region's time is reported in
*reference seconds*: its host seconds, less the time the probes took,
times the mean of ``1 / slowdown`` over its probes — the seconds it
would take on a host as fast as the reference.  A change to the program
moves reference seconds as it moves host seconds; a change of host
speed moves the probes as well and cancels out.

The in-region probes run only inside :func:`sampling`; outside it (the
traced run, the tests) a region is probed before and after only.  The
probes run in the calling process, so a region whose work runs in other
processes is not tracked by them.  The probe does not touch the
program, so a change to the program never moves it.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, List, Optional, Tuple

#: Events per probe: a few milliseconds.
PROBE_EVENTS = 2_000
#: Seconds between in-region probes (about 5% of the region's time).
INTERVAL_S = 0.05
#: Seconds per probe event, about what it takes inside a region on the
#: 2-vCPU VM the benchmark was defined on, at its fast state: there a
#: reference second is about a host second.
REFERENCE_EVENT_S = 1.0e-6
_NODES = 8
_TABLE = 256

#: Slowdowns probed inside the current region, or None when
#: :func:`sampling` is not active.
_samples: Optional[List[float]] = None
_probe_seconds = 0.0


class _Node:
    __slots__ = ("table", "sent", "peer")

    def __init__(self):
        self.table = {}
        self.sent = 0
        self.peer = None

    def handle(self, key: int, now: float, heap: list, seq: int) -> None:
        if self.table.get(key) is None:
            self.table[key] = now
            if len(self.table) > _TABLE:
                self.table.pop(next(iter(self.table)))
        self.sent += 1
        heapq.heappush(heap, (now + 1e-4 * (key % 7 + 1), seq, self.peer,
                              key))


def probe() -> float:
    """The host's slowdown now: the reference loop's seconds per event
    over ``REFERENCE_EVENT_S``."""
    nodes = [_Node() for _ in range(_NODES)]
    for i, node in enumerate(nodes):
        node.peer = nodes[(i + 1) % _NODES]
    heap = [(0.0, i, nodes[i % _NODES], i * 7919) for i in range(64)]
    heapq.heapify(heap)
    seq = len(heap)
    started = perf_counter()
    for _ in range(PROBE_EVENTS):
        now, _seq, node, key = heapq.heappop(heap)
        seq += 1
        node.handle((key * 31 + seq) % 1000, now, heap, seq)
    return (perf_counter() - started) / PROBE_EVENTS / REFERENCE_EVENT_S


def _on_alarm(_signum, _frame) -> None:
    global _probe_seconds
    started = perf_counter()
    if _samples is not None:
        _samples.append(probe())
    _probe_seconds += perf_counter() - started


@contextmanager
def sampling() -> Iterator[None]:
    """Probe the host's speed inside every :func:`timed` region."""
    global _samples
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    _samples = []
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _samples = None
        signal.signal(signal.SIGALRM, previous)


def timed(fn: Callable[..., Any], *args, **kwargs) -> Tuple[Any, float, float]:
    """Run ``fn`` after a garbage collection, probing the host around it
    (and inside it, under :func:`sampling`).

    Returns ``(result, host seconds, slowdown)``: the host seconds leave
    out the in-region probes, and the slowdown is the one
    :func:`reference_seconds` divides by.
    """
    global _probe_seconds
    gc.collect()
    probes = [probe()]
    if _samples is not None:
        _samples.clear()
        _probe_seconds = 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    started = perf_counter()
    try:
        result = fn(*args, **kwargs)
    finally:
        if _samples is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - started
        if _samples is not None:
            probes += _samples
            wall -= _probe_seconds
    probes.append(probe())
    return result, wall, 1.0 / statistics.fmean(1.0 / p for p in probes)


def reference_seconds(wall: float, slowdown: float) -> float:
    """``wall`` host seconds, timed at ``slowdown``, in reference
    seconds."""
    return wall / slowdown
