"""Span primitives: the building blocks of flow-setup tracing.

A :class:`SpanRecord` is one timed interval (or instant) on the
simulated clock, with a name, a category (``switch`` / ``controller`` /
``channel`` / ``flow`` / ...), optional parent for nesting, a ``track``
(rendered as a thread lane in trace viewers) and free-form attributes.

A :class:`SpanRecorder` collects records.  The disabled path is a single
attribute check per call site, so instrumented components cost nearly
nothing when nobody is observing.

This module is deliberately dependency-free (stdlib only) so every
layer of the package can import it without cycles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Record kinds.
KIND_SPAN = "span"
KIND_INSTANT = "instant"


@dataclass
class SpanRecord:
    """One traced interval or point event on the simulated clock."""

    name: str
    category: str
    start: float
    end: Optional[float]
    span_id: int
    parent_id: Optional[int] = None
    #: Logical lane (e.g. ``flow-17``); viewers render one row per track.
    track: str = ""
    kind: str = KIND_SPAN
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        """Seconds covered, or ``None`` while the span is still open."""
        if self.end is None:
            return None
        return self.end - self.start

    @property
    def closed(self) -> bool:
        """True once the span has an end time (instants always are)."""
        return self.kind == KIND_INSTANT or self.end is not None

    def __str__(self) -> str:
        if self.kind == KIND_INSTANT:
            head = f"[{self.start * 1e3:10.4f}ms]"
        else:
            dur = "open" if self.end is None else f"{self.duration * 1e3:.4f}ms"
            head = f"[{self.start * 1e3:10.4f}ms +{dur}]"
        parts = " ".join(f"{k}={v}" for k, v in self.attrs.items())
        return f"{head} {self.category:<12} {self.name:<24} {parts}"


class SpanRecorder:
    """Collector of :class:`SpanRecord` entries with a capacity cap.

    Every record carries the simulated time its caller passes.  When
    ``max_spans`` is reached new records are counted in :attr:`dropped`
    instead of stored, so a runaway trace cannot exhaust memory.
    """

    def __init__(self, enabled: bool = True,
                 max_spans: Optional[int] = None):
        self.enabled = enabled
        self.max_spans = max_spans
        self.records: List[SpanRecord] = []
        #: Records rejected because ``max_spans`` was reached.
        self.dropped = 0
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _admit(self, record: SpanRecord) -> Optional[SpanRecord]:
        if self.max_spans is not None and len(self.records) >= self.max_spans:
            self.dropped += 1
            return None
        self.records.append(record)
        return record

    def add_span(self, name: str, start: float, end: float, *,
                 category: str = "", track: str = "",
                 parent: Optional[int] = None,
                 **attrs: Any) -> Optional[SpanRecord]:
        """Record a fully-known (already closed) span retroactively.

        Returns the record, or ``None`` when disabled/dropped.  This is
        the path the flow tracer uses: it learns every boundary time of
        a flow setup only once the first packet leaves the switch, then
        emits the whole nest at once.
        """
        if not self.enabled:
            return None
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts "
                             f"({end} < {start})")
        record = SpanRecord(name=name, category=category, start=start,
                            end=end, span_id=next(self._ids),
                            parent_id=parent, track=track,
                            attrs=dict(attrs))
        return self._admit(record)

    def instant(self, name: str, *, t: float, category: str = "",
                track: str = "", parent: Optional[int] = None,
                **attrs: Any) -> Optional[SpanRecord]:
        """Record a point event (zero duration) at ``t``."""
        if not self.enabled:
            return None
        record = SpanRecord(name=name, category=category, start=t, end=t,
                            span_id=next(self._ids), parent_id=parent,
                            track=track, kind=KIND_INSTANT,
                            attrs=dict(attrs))
        return self._admit(record)

    def __len__(self) -> int:
        return len(self.records)


def validate_nesting(records: List[SpanRecord]) -> List[str]:
    """Check the span-tree invariants; returns violation descriptions.

    Invariants: every parent reference resolves; every span is closed;
    children start no earlier and end no later than their parent (child
    spans close before — or exactly when — their parents do).
    """
    by_id = {r.span_id: r for r in records}
    problems: List[str] = []
    for record in records:
        if record.end is None:
            problems.append(f"span {record.name!r} (id {record.span_id}) "
                            "was never closed")
            continue
        if record.parent_id is None:
            continue
        parent = by_id.get(record.parent_id)
        if parent is None:
            problems.append(f"span {record.name!r} references unknown "
                            f"parent {record.parent_id}")
            continue
        if parent.end is None:
            continue  # already reported above
        if record.start < parent.start - 1e-12:
            problems.append(f"child {record.name!r} starts at "
                            f"{record.start} before parent "
                            f"{parent.name!r} at {parent.start}")
        if record.end > parent.end + 1e-12:
            problems.append(f"child {record.name!r} ends at {record.end} "
                            f"after parent {parent.name!r} at {parent.end}")
    return problems
