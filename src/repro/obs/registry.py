"""Named counters, gauges and fixed-bucket histograms with label sets.

The registry replaces the ad-hoc integer counters that used to live on
the switch agent, datapath, controller and packet buffer: each component
now owns :class:`Counter`/:class:`Gauge` objects (created standalone or
through a shared :class:`MetricsRegistry`) as public attributes, and
callers read the metric's value (``agent.packet_ins_sent.value``).

Snapshots (:class:`MetricsSnapshot`) are plain picklable data: the
parallel engine ships one per task back to the parent and merges them on
reassembly (counters add, gauges take the max, histogram buckets add).

Like :mod:`repro.obs.spans`, this module imports nothing from the rest
of the package so any layer can use it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

#: Canonical label form: sorted ``(key, value)`` pairs.
LabelSet = Tuple[Tuple[str, str], ...]
#: Metric identity inside a registry / snapshot.
MetricKey = Tuple[str, LabelSet]

#: Default histogram buckets for sub-second delay metrics (seconds).
DELAY_BUCKETS_S = (0.0005, 0.001, 0.002, 0.005, 0.010, 0.020, 0.050,
                   0.100, 0.250, 0.500, 1.000)

_bisect_left = bisect.bisect_left


def label_set(labels: Dict[str, object]) -> LabelSet:
    """Normalize a label dict into its canonical tuple form."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count.

    Hot call sites (per-packet datapath counters) should preresolve the
    bound method once — ``inc = counter.inc`` — and call that: ``inc()``
    is a single C-level vectorcall with no attribute chain, which is what
    keeps registry-backed counters as cheap as the raw integers they
    replaced.
    """

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, **labels: object):
        self.name = name
        self.labels = label_set(labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (>= 0) to the count."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}{dict(self.labels)} = {self.value})"


class Gauge:
    """A value that can go up and down (occupancy, peaks, ...)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, **labels: object):
        self.name = name
        self.labels = label_set(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current reading."""
        self.value = value

    def track_max(self, value: float) -> None:
        """Keep the largest reading seen (peak gauges)."""
        if value > self.value:
            self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}{dict(self.labels)} = {self.value})"


class Histogram:
    """Fixed-bucket histogram (Prometheus-style cumulative export).

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches the rest.  ``counts[i]`` is the number of observations in
    ``(buckets[i-1], buckets[i]]`` and ``counts[-1]`` the overflow.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, buckets: Iterable[float] = DELAY_BUCKETS_S,
                 **labels: object):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = label_set(labels)
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[_bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram({self.name}{dict(self.labels)}, "
                f"n={self.count}, sum={self.sum:.6g})")


@dataclass
class HistogramData:
    """Picklable snapshot of one histogram's state."""

    buckets: Tuple[float, ...]
    counts: Tuple[int, ...]
    sum: float
    count: int


@dataclass
class MetricsSnapshot:
    """Point-in-time copy of a registry, ready to pickle and merge."""

    counters: Dict[MetricKey, float] = field(default_factory=dict)
    gauges: Dict[MetricKey, float] = field(default_factory=dict)
    histograms: Dict[MetricKey, HistogramData] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> None:
        """Fold ``other`` into this snapshot in place.

        Counters and histogram buckets add; gauges keep the maximum
        (every migrated gauge is a peak/occupancy reading, for which the
        cross-run maximum is the meaningful aggregate).
        """
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        for key, value in other.gauges.items():
            self.gauges[key] = max(self.gauges.get(key, value), value)
        for key, data in other.histograms.items():
            mine = self.histograms.get(key)
            if mine is None:
                self.histograms[key] = HistogramData(
                    buckets=data.buckets, counts=tuple(data.counts),
                    sum=data.sum, count=data.count)
                continue
            if mine.buckets != data.buckets:
                raise ValueError(
                    f"cannot merge histogram {key[0]!r}: bucket bounds "
                    f"differ ({mine.buckets} vs {data.buckets})")
            self.histograms[key] = HistogramData(
                buckets=mine.buckets,
                counts=tuple(a + b for a, b in zip(mine.counts, data.counts)),
                sum=mine.sum + data.sum, count=mine.count + data.count)

    def with_labels(self, **extra: object) -> "MetricsSnapshot":
        """A copy with ``extra`` labels stamped onto every metric.

        The engine uses this to scope each task's metrics by mechanism
        label before cross-task merging, so e.g. ``buffer-16`` and
        ``no-buffer`` counters never sum together.
        """
        def rekey(key: MetricKey) -> MetricKey:
            name, labels = key
            merged = dict(labels)
            merged.update({str(k): str(v) for k, v in extra.items()})
            return (name, tuple(sorted(merged.items())))

        return MetricsSnapshot(
            counters={rekey(k): v for k, v in self.counters.items()},
            gauges={rekey(k): v for k, v in self.gauges.items()},
            histograms={rekey(k): v for k, v in self.histograms.items()},
        )

    @property
    def empty(self) -> bool:
        """True when no metric of any kind is present."""
        return not (self.counters or self.gauges or self.histograms)


class MetricsRegistry:
    """Registry of named metrics, the scrape root for exporters.

    Metrics can be created through the factory methods (get-or-create
    semantics keyed on ``(name, labels)``) or created standalone by a
    component and adopted via :meth:`register` — the latter is how the
    packet buffer, which exists below the testbed layer, joins the
    run's registry after construction.
    """

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, object] = {}

    # -- factories -------------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: Iterable[float] = DELAY_BUCKETS_S,
                  **labels: object) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``."""
        key = (name, label_set(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, buckets, **labels)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(f"{name!r} already registered as "
                            f"{type(metric).__name__}")
        return metric

    def _get_or_create(self, cls, name: str, labels: Dict[str, object]):
        key = (name, label_set(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, **labels)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"{name!r} already registered as "
                            f"{type(metric).__name__}")
        return metric

    # -- adoption --------------------------------------------------------
    def register(self, metric) -> None:
        """Adopt an existing metric object (shared-value, not copied)."""
        key = (metric.name, metric.labels)
        existing = self._metrics.get(key)
        if existing is not None and existing is not metric:
            raise ValueError(f"metric {key} already registered with a "
                             "different instance")
        self._metrics[key] = metric

    # -- scraping --------------------------------------------------------
    def metrics(self) -> List[object]:
        """Every registered metric, sorted by ``(name, labels)``."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def snapshot(self) -> MetricsSnapshot:
        """Copy every metric's current state into plain data."""
        snap = MetricsSnapshot()
        for (name, labels), metric in self._metrics.items():
            if isinstance(metric, Counter):
                snap.counters[(name, labels)] = metric.value
            elif isinstance(metric, Gauge):
                snap.gauges[(name, labels)] = metric.value
            elif isinstance(metric, Histogram):
                snap.histograms[(name, labels)] = HistogramData(
                    buckets=metric.buckets, counts=tuple(metric.counts),
                    sum=metric.sum, count=metric.count)
        return snap

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str, **labels: object) -> Optional[object]:
        """Look up a metric without creating it."""
        return self._metrics.get((name, label_set(labels)))
