"""tcpdump-like capture on links.

A :class:`LinkCapture` taps a :class:`~repro.netsim.link.Link` and records
``(time, kind, size)`` for everything transmitted — the raw material for
the paper's control-path-load figures (bytes per direction over the active
window) and for message-count assertions in tests.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, List, Optional, Tuple

from ..netsim import Link
from ..simkit import to_mbps


def _kind_of(item: Any) -> str:
    """Capture classification: OpenFlow kind, or ``data`` for packets."""
    kind = getattr(item, "kind", None)
    return kind if isinstance(kind, str) else "data"


class LinkCapture:
    """Byte- and message-accounting tap on one link direction."""

    def __init__(self, link: Link, name: str = ""):
        self.link = link
        self.name = name or f"capture:{link.name}"
        self.records: List[Tuple[float, str, int]] = []
        self.bytes_total = 0
        self.by_kind: Counter = Counter()
        self.bytes_by_kind: Counter = Counter()
        link.add_tap(self._tap)

    def _tap(self, time: float, item: Any, size: int) -> None:
        kind = _kind_of(item)
        self.records.append((time, kind, size))
        self.bytes_total += size
        self.by_kind[kind] += 1
        self.bytes_by_kind[kind] += size

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def count(self, kind: Optional[str] = None) -> int:
        """Messages captured (optionally of one kind)."""
        if kind is None:
            return len(self.records)
        return self.by_kind.get(kind, 0)

    def bytes(self, kind: Optional[str] = None) -> int:
        """Bytes captured (optionally of one kind)."""
        if kind is None:
            return self.bytes_total
        return self.bytes_by_kind.get(kind, 0)

    def bytes_within(self, start: float, end: float,
                     kind: Optional[str] = None) -> int:
        """Bytes captured with ``start <= t < end`` (optionally one kind)."""
        return sum(size for t, k, size in self.records
                   if start <= t < end and (kind is None or k == kind))

    def count_within(self, start: float, end: float,
                     kind: Optional[str] = None) -> int:
        """Messages captured with ``start <= t < end``."""
        return sum(1 for t, k, _ in self.records
                   if start <= t < end and (kind is None or k == kind))

    def load_bps(self, window: float) -> float:
        """Average load in bits/s over a window of ``window`` seconds."""
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        return self.bytes_total * 8 / window

    def load_mbps(self, window: float) -> float:
        """Average load in Mbit/s over a window of ``window`` seconds."""
        return to_mbps(self.load_bps(window))

    def first_time(self) -> Optional[float]:
        """Time of the first captured transmission."""
        return self.records[0][0] if self.records else None

    def last_time(self) -> Optional[float]:
        """Time of the last captured transmission."""
        return self.records[-1][0] if self.records else None

    def active_window(self) -> float:
        """Seconds between first and last capture (0 if fewer than 2)."""
        if len(self.records) < 2:
            return 0.0
        return self.records[-1][0] - self.records[0][0]

    def clear(self) -> None:
        """Drop all records and counters."""
        self.records.clear()
        self.bytes_total = 0
        self.by_kind.clear()
        self.bytes_by_kind.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LinkCapture({self.name!r}, msgs={len(self.records)}, "
                f"bytes={self.bytes_total})")


class AggregateCapture:
    """Read-only sum view over several :class:`LinkCapture` taps.

    :class:`~repro.metrics.collector.MetricsSuite` keeps one control
    capture per switch; the run snapshot wants path-wide totals.  This
    facade answers the capture query API by summing over its members
    (and min/max for the time boundaries).
    """

    def __init__(self, captures: List[LinkCapture], name: str = ""):
        self.captures = list(captures)
        self.name = name or "aggregate"

    @property
    def bytes_total(self) -> int:
        """Bytes captured across every member."""
        return sum(c.bytes_total for c in self.captures)

    def count(self, kind: Optional[str] = None) -> int:
        """Messages captured across every member."""
        return sum(c.count(kind) for c in self.captures)

    def bytes(self, kind: Optional[str] = None) -> int:
        """Bytes captured across every member (optionally of one kind)."""
        return sum(c.bytes(kind) for c in self.captures)

    def bytes_within(self, start: float, end: float,
                     kind: Optional[str] = None) -> int:
        """Bytes captured with ``start <= t < end`` across members."""
        return sum(c.bytes_within(start, end, kind) for c in self.captures)

    def count_within(self, start: float, end: float,
                     kind: Optional[str] = None) -> int:
        """Messages captured with ``start <= t < end`` across members."""
        return sum(c.count_within(start, end, kind) for c in self.captures)

    def first_time(self) -> Optional[float]:
        """Earliest capture time across members (None if all empty)."""
        times = [t for t in (c.first_time() for c in self.captures)
                 if t is not None]
        return min(times) if times else None

    def last_time(self) -> Optional[float]:
        """Latest capture time across members (None if all empty)."""
        times = [t for t in (c.last_time() for c in self.captures)
                 if t is not None]
        return max(times) if times else None

    def clear(self) -> None:
        """Drop all records on every member."""
        for capture in self.captures:
            capture.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AggregateCapture({self.name!r}, "
                f"members={len(self.captures)}, bytes={self.bytes_total})")
