"""Time series and summary statistics used by every figure.

No numpy dependency here: the quantities involved are small (hundreds to
thousands of samples per run) and keeping the metrics layer stdlib-only
lets the core library install with zero dependencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @classmethod
    def empty(cls) -> "Summary":
        """The summary of no data."""
        return cls(count=0, mean=0.0, std=0.0, minimum=0.0, maximum=0.0)

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean:.6g} std={self.std:.6g} "
                f"min={self.minimum:.6g} max={self.maximum:.6g}")


def ordered_sum(values: Iterable[float]) -> float:
    """``sum(values)``, added strictly left to right.

    From Python 3.12 the builtin ``sum()`` compensates float rounding, so
    the same samples sum to a different last bit than on 3.10/3.11.  This
    loop makes the additions ``sum()`` made before 3.12, so every row is
    bit-identical on every supported Python.
    """
    total = 0
    for value in values:
        total += value
    return total


def summarize(values: Iterable[float]) -> Summary:
    """Population summary of ``values`` (std is the population std)."""
    data = list(values)
    if not data:
        return Summary.empty()
    n = len(data)
    mean = ordered_sum(data) / n
    variance = ordered_sum((v - mean) ** 2 for v in data) / n
    return Summary(count=n, mean=mean, std=math.sqrt(variance),
                   minimum=min(data), maximum=max(data))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty data")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be within [0, 100], got {q}")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    rank = (q / 100) * (len(data) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return data[low]
    frac = rank - low
    return data[low] * (1 - frac) + data[high] * frac


class TimeSeries:
    """Append-only (time, value) series with summary helpers."""

    def __init__(self, name: str = ""):
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def add(self, time: float, value: float) -> None:
        """Append a sample; times must be nondecreasing."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"non-monotonic time {time} after {self._times[-1]}")
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def times(self) -> Tuple[float, ...]:
        """Sample times."""
        return tuple(self._times)

    @property
    def values(self) -> Tuple[float, ...]:
        """Sample values."""
        return tuple(self._values)

    def summary(self) -> Summary:
        """Summary over all samples."""
        return summarize(self._values)

    def mean(self) -> float:
        """Mean value (0 for an empty series)."""
        return self.summary().mean

    def max(self) -> float:
        """Maximum value (0 for an empty series)."""
        return max(self._values) if self._values else 0.0

    def last(self) -> Optional[float]:
        """Most recent value, or ``None`` when empty."""
        return self._values[-1] if self._values else None

    def window(self, start: float, end: float) -> "TimeSeries":
        """Sub-series with ``start <= t < end``."""
        out = TimeSeries(self.name)
        for t, v in zip(self._times, self._values):
            if start <= t < end:
                out.add(t, v)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeSeries({self.name!r}, n={len(self)})"
