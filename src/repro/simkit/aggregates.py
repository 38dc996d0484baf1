"""Lazy send times for packet trains.

:class:`ArithmeticTimes` is a lazy arithmetic send-time sequence
(``start + k·gap``): a million-packet train is three floats, not a
million tuples, and indexing and slicing materialize nothing.  The
hybrid execution engine (:mod:`repro.engine.hybrid`) keeps each flow's
tail this way and advances a whole burst segment as one ordinary
:meth:`~repro.simkit.Simulator.schedule_at` completion.
"""

from __future__ import annotations

from typing import Iterator


class ArithmeticTimes:
    """Lazy arithmetic sequence ``start + k·gap`` for ``count`` sends."""

    __slots__ = ("start", "gap", "count")

    def __init__(self, start: float, gap: float, count: int):
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if gap < 0:
            raise ValueError(f"gap must be >= 0, got {gap}")
        self.start = start
        self.gap = gap
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> float:
        if index < 0:
            index += self.count
        if not 0 <= index < self.count:
            raise IndexError(index)
        return self.start + index * self.gap

    def __iter__(self) -> Iterator[float]:
        return _arithmetic_iter(self.start, self.gap, self.count)

    def tail(self, from_index: int) -> "ArithmeticTimes":
        """The subsequence starting at ``from_index`` (may be empty)."""
        from_index = max(0, min(from_index, self.count))
        return ArithmeticTimes(self.start + from_index * self.gap,
                               self.gap, self.count - from_index)

    @property
    def last(self) -> float:
        """Time of the final send (== start when count <= 1)."""
        if self.count == 0:
            return self.start
        return self.start + (self.count - 1) * self.gap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ArithmeticTimes(start={self.start:g}, gap={self.gap:g}, "
                f"count={self.count})")


def _arithmetic_iter(start: float, gap: float, count: int) -> Iterator[float]:
    for k in range(count):
        yield start + k * gap

