"""The shared buffer pool: one unit budget, many partitions.

:class:`SharedBufferPool` owns a single capacity budget and arbitrates
``store`` admissions for its member :class:`~repro.openflow.pktbuffer.
PacketBuffer` partitions through an :class:`~repro.bufferpool.policies.
AdmissionPolicy`.  The pool keeps its *own* per-partition ledger (live
units plus a cooling ring mirroring each buffer's reclaim delay) rather
than reaching into buffer internals: buffers call :meth:`admit` before
opening a unit and :meth:`release_unit` when one is vacated, and the two
ledgers stay in lockstep because every unit opened or vacated pairs with
exactly one pool call (appends to a flow's unit take no budget).

Observability: per-partition ``pool_occupancy_units`` gauges and
``pool_admitted_total``/``pool_rejected_total`` counters (labelled by
partition and policy) registered in the run's
:class:`~repro.obs.registry.MetricsRegistry`, a pool-wide peak gauge,
and ``pool_pressure`` events on the pool's emitter — fired on every
rejection and on the edge where total occupancy crosses 90% of the
budget — which :class:`~repro.obs.capture.RunObserver` turns into
``pool.pressure`` trace instants.

Determinism: the pool draws no randomness and keeps no wall-clock state;
admissions are pure functions of (policy, ledger), so pooled runs are
bit-identical serial vs parallel.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from ..obs.registry import MetricsRegistry
from ..simkit import EventEmitter
from .policies import AdmissionPolicy, Verdict, create_policy
from .spec import SCOPE_PORT, PoolSpec

#: Pool-pressure event name on :attr:`SharedBufferPool.events`.
POOL_PRESSURE_EVENT = "pool_pressure"

#: Edge-trigger thresholds for the high-occupancy pressure instant:
#: fire once when total occupancy reaches 90% of the budget, re-arm
#: after it falls back below 75% (hysteresis avoids instant spam while
#: the pool hovers at the knee).
PRESSURE_HIGH_FRACTION = 0.90
PRESSURE_REARM_FRACTION = 0.75


class SharedBufferPool:
    """One capacity budget shared by named buffer partitions.

    Partitions register lazily on first touch with a fixed
    ``default_quota`` (set by the builder from the expected partition
    count), so the ledger is deterministic regardless of which partition
    stores first.
    """

    def __init__(self, spec: PoolSpec, total_capacity: int,
                 default_quota: int,
                 registry: Optional[MetricsRegistry] = None,
                 policy: Optional[AdmissionPolicy] = None):
        if total_capacity < 1:
            raise ValueError(
                f"pool capacity must be >= 1, got {total_capacity}")
        if default_quota < 1:
            raise ValueError(
                f"partition quota must be >= 1, got {default_quota}")
        self.spec = spec
        self.total_capacity = int(total_capacity)
        self.default_quota = int(default_quota)
        self.policy = policy if policy is not None else create_policy(spec)
        self.events = EventEmitter()
        self.registry = registry if registry is not None else MetricsRegistry()
        # Per-partition ledger: live units, cooling ring (release times
        # still holding a unit, mirroring the buffer's reclaim delay),
        # and the static quota the policy sees.
        self._live: Dict[str, int] = {}
        self._cooling: Dict[str, Deque[float]] = {}
        self._quota: Dict[str, int] = {}
        self._occupancy_gauges: Dict[str, object] = {}
        self._admitted: Dict[str, object] = {}
        self._rejected: Dict[str, object] = {}
        self.peak_occupancy = 0
        self._peak_gauge = self.registry.gauge(
            "pool_peak_units", policy=spec.policy)
        self._underflow = self.registry.counter(
            "pool_return_underflow_total", policy=spec.policy)
        self._pressure_high = int(total_capacity * PRESSURE_HIGH_FRACTION)
        self._pressure_rearm = int(total_capacity * PRESSURE_REARM_FRACTION)
        self._pressure_active = False

    # ------------------------------------------------------------------
    # Partition registration and ledger reads
    # ------------------------------------------------------------------
    def register_partition(self, partition: str,
                           quota: Optional[int] = None) -> None:
        """Declare ``partition`` (idempotent; implicit on first admit)."""
        if partition in self._live:
            return
        self._live[partition] = 0
        self._cooling[partition] = deque()
        self._quota[partition] = (self.default_quota if quota is None
                                  else int(quota))
        labels = {"partition": partition, "policy": self.spec.policy}
        self._occupancy_gauges[partition] = self.registry.gauge(
            "pool_occupancy_units", **labels)
        self._admitted[partition] = self.registry.counter(
            "pool_admitted_total", **labels)
        self._rejected[partition] = self.registry.counter(
            "pool_rejected_total", **labels)

    @property
    def partitions(self) -> tuple:
        """Registered partition ids, sorted."""
        return tuple(sorted(self._live))

    def quota(self, partition: str) -> int:
        """The static share the policy sees for ``partition``."""
        return self._quota[partition]

    def _prune(self, partition: str, now: float) -> None:
        cooling = self._cooling[partition]
        while cooling and cooling[0] <= now:
            cooling.popleft()

    def occupancy_of(self, partition: str, now: float) -> int:
        """Units ``partition`` holds at ``now`` (live + cooling)."""
        if partition not in self._live:
            return 0
        self._prune(partition, now)
        return self._live[partition] + len(self._cooling[partition])

    def total_occupancy(self, now: float) -> int:
        """Units held pool-wide at ``now``."""
        total = 0
        for partition in self._live:
            self._prune(partition, now)
            total += self._live[partition] + len(self._cooling[partition])
        return total

    def free_units(self, now: float) -> int:
        """Unclaimed budget at ``now`` (never negative)."""
        free = self.total_capacity - self.total_occupancy(now)
        return free if free > 0 else 0

    # ------------------------------------------------------------------
    # The admission / return protocol (called by PacketBuffer)
    # ------------------------------------------------------------------
    def admit(self, partition: str, now: float) -> Verdict:
        """Ask for one unit for ``partition``; takes it when admitted."""
        if partition not in self._live:
            self.register_partition(partition)
        occupancy = self.occupancy_of(partition, now)
        free = self.free_units(now)
        verdict = self.policy.admits(occupancy, self._quota[partition],
                                     free, partition)
        if not verdict.admitted:
            self._rejected[partition].inc()
            self.events.emit(POOL_PRESSURE_EVENT, now, "reject",
                             partition, occupancy, free, verdict.reason)
            return verdict
        self._live[partition] += 1
        self._admitted[partition].inc()
        self._occupancy_gauges[partition].set(occupancy + 1)
        total = self.total_capacity - free + 1
        if total > self.peak_occupancy:
            self.peak_occupancy = total
            self._peak_gauge.track_max(total)
        if self._pressure_active:
            if total < self._pressure_rearm:
                self._pressure_active = False
        elif total >= self._pressure_high:
            self._pressure_active = True
            self.events.emit(POOL_PRESSURE_EVENT, now, "high-occupancy",
                             partition, occupancy + 1, free - 1, "high")
        return verdict

    def release_unit(self, partition: str, now: float,
                     held: Optional[float] = None,
                     cool_until: Optional[float] = None) -> None:
        """Return one of ``partition``'s units.

        ``held`` is the store-to-release interval (the packet_in round
        trip) and feeds delay-aware policies.  ``cool_until`` keeps the
        unit counted against the pool until the buffer's reclaim delay
        lapses, mirroring the buffer's cooling ring.
        """
        if partition not in self._live:
            # A return for a partition the pool never admitted — only
            # reachable through accounting bugs; never go negative.
            self._underflow.inc()
            return
        if self._live[partition] <= 0:
            self._underflow.inc()
        else:
            self._live[partition] -= 1
        if cool_until is not None and cool_until > now:
            self._cooling[partition].append(cool_until)
        if held is not None:
            self.policy.observe_hold(partition, held)
        self._occupancy_gauges[partition].set(
            self.occupancy_of(partition, now))
        if self._pressure_active:
            if self.total_occupancy(now) < self._pressure_rearm:
                self._pressure_active = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SharedBufferPool({self.spec.name!r}, "
                f"capacity={self.total_capacity}, "
                f"partitions={list(self.partitions)})")


def expected_partitions(spec: PoolSpec, n_switches: int,
                        ports_per_switch: int = 1) -> int:
    """How many partitions a scenario will register under ``spec``."""
    if spec.scope == SCOPE_PORT:
        return max(1, n_switches * ports_per_switch)
    return max(1, n_switches)


def build_pool(spec: Optional[PoolSpec], per_switch_units: int,
               n_switches: int, ports_per_switch: int = 1,
               registry: Optional[MetricsRegistry] = None,
               ) -> Optional[SharedBufferPool]:
    """Create the run's pool from its spec (``None`` → private buffers).

    The budget defaults to ``per_switch_units * n_switches`` — a pooled
    run never holds more units than the equivalent private-buffer run —
    and each partition's static quota is an even split over the expected
    partition count, so ``static`` at switch scope is bit-identical to
    private buffers and ``static`` at port scope is the classic ``C/K``
    split that dynamic thresholds are measured against.
    """
    if spec is None:
        return None
    total = spec.capacity
    if total is None:
        total = max(1, int(per_switch_units) * max(1, int(n_switches)))
    parts = expected_partitions(spec, n_switches, ports_per_switch)
    default_quota = max(1, total // parts)
    return SharedBufferPool(spec, total, default_quota, registry=registry)
