"""Online run-health monitoring: heartbeats and live invariant checks.

PRs 4 and 6 both found buffer-accounting bugs *post hoc*, in tests,
after the corrupted numbers had already flowed into figures.  This
module moves those invariants into the run itself: a
:class:`HealthMonitor` schedules a periodic heartbeat event on the
simulated clock (``PRIORITY_LATE``, read-only) and, at every beat,
snapshots run vitals and evaluates pluggable :class:`RunMonitor`
checks.  A failed check raises nothing — it emits a structured
:class:`MonitorViolation` so a long sweep reports the corruption
instead of silently producing wrong results (the same philosophy BShare
applies to queueing delay: measure continuously, not after the fact).

Built-in monitors:

* :class:`ConservationMonitor` — the PR 6 conservation law, per
  mechanism: every packet ever stored is released, expired, abandoned
  or still held; with a shared pool attached, the pool ledger must
  track the buffers' occupancy in lockstep.
* :class:`MM1EnvelopeMonitor` — the analytic M/M/1 sanity envelope from
  :mod:`repro.analytic`: at low offered load the observed mean flow
  setup delay must stay under :func:`repro.analytic.setup_delay_bound`.

Determinism: monitors only *read* component state, so a monitored run's
:class:`~repro.metrics.RunMetrics` are bit-identical to an unmonitored
one.  The heartbeat events do add to ``events_executed``, which is why
monitoring is opt-in (the kernel-equivalence goldens pin unmonitored
runs).  Heartbeat schedules and violation detection depend only on the
simulated clock and component state — never on wall time — so serial
and parallel sweeps produce identical monitor summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..simkit import PRIORITY_LATE

#: Default heartbeat period, simulated seconds.  10 ms ≈ a few dozen
#: beats per workload-A repetition: cheap, yet fine-grained enough to
#: catch mid-run corruption long before the run ends.
DEFAULT_INTERVAL_S = 0.010


@dataclass(frozen=True)
class MonitorViolation:
    """One invariant failure, caught while the run was still executing."""

    #: Which monitor fired (``conservation`` / ``mm1_envelope`` / ...).
    monitor: str
    #: Simulated time of the heartbeat that caught it.
    time: float
    #: What the invariant is about — for conservation checks, the
    #: offending buffer partition.
    subject: str
    #: Human-readable account of the broken invariant.
    message: str
    #: The numbers behind the verdict (picklable plain data).
    details: Tuple[Tuple[str, float], ...] = ()

    def to_dict(self) -> dict:
        return {"monitor": self.monitor, "time": self.time,
                "subject": self.subject, "message": self.message,
                "details": dict(self.details)}


@dataclass
class HeartbeatRecord:
    """One periodic snapshot of run vitals (picklable)."""

    #: Simulated time of the beat.
    time: float
    #: Beat index within the run (0-based).
    beat: int
    #: Simulator events scheduled so far (``Simulator.events_scheduled``
    #: — exact mid-run, unlike ``events_executed`` which is flushed in
    #: bulk only when the run loop exits).
    events_scheduled: int
    #: Events scheduled since the previous beat (event-rate numerator).
    events_delta: int
    #: Pending (not yet cancelled) events in the queue.
    heap_depth: int
    #: Buffer units in use, per mechanism partition.
    buffer_units: Dict[str, int] = field(default_factory=dict)
    #: Shared-pool occupancy (units), or None for private buffers.
    pool_units: Optional[int] = None
    #: Monitor verdicts at this beat: name -> "ok" or "violated".
    verdicts: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        payload = {"time": self.time, "beat": self.beat,
                   "events_scheduled": self.events_scheduled,
                   "events_delta": self.events_delta,
                   "heap_depth": self.heap_depth,
                   "buffer_units": dict(self.buffer_units),
                   "verdicts": dict(self.verdicts)}
        if self.pool_units is not None:
            payload["pool_units"] = self.pool_units
        return payload


class RunMonitor:
    """Base class for pluggable invariant checks.

    Subclasses implement :meth:`check`, returning the violations found
    at this instant (usually an empty list).  Checks must be read-only:
    they run inside the simulation loop and must not perturb results.
    """

    name = "monitor"

    def check(self, testbed, now: float) -> List[MonitorViolation]:
        raise NotImplementedError


class ConservationMonitor(RunMonitor):
    """The buffer conservation law, evaluated live, in packets.

    Every buffer, at either granularity: ``buffered == released +
    expired + abandoned + packets_stored``.  Packets the per-flow cap
    refused were never stored, so they stay outside the law.  With a
    shared pool, the pool ledger must charge its partitions exactly
    what the buffers hold (lockstep check).
    """

    name = "conservation"

    #: The law as the violation message spells it.
    LAW = "buffered == released + expired + abandoned + packets_stored"

    def check(self, testbed, now: float) -> List[MonitorViolation]:
        violations: List[MonitorViolation] = []
        pool = testbed.pool
        pooled_occupancy = 0
        for switch in testbed.switches:
            mechanism = switch.mechanism
            buffer = mechanism.buffer
            if pool is not None and buffer.pool is pool:
                pooled_occupancy += mechanism.occupancy(now)
            stored = buffer.buffered.value
            drained = (buffer.released.value + buffer.expired.value
                       + buffer.abandoned.value)
            in_use = buffer.packets_stored
            if stored != drained + in_use:
                violations.append(MonitorViolation(
                    monitor=self.name, time=now, subject=buffer.partition,
                    message=(f"unit conservation broken on partition "
                             f"{buffer.partition!r}: {self.LAW} is "
                             f"{stored} != {drained} + {in_use}"),
                    details=(("stored", stored), ("drained", drained),
                             ("in_use", in_use))))
        if pool is not None:
            ledger = pool.total_occupancy(now)
            if ledger != pooled_occupancy:
                violations.append(MonitorViolation(
                    monitor=self.name, time=now, subject="pool",
                    message=(f"pool ledger out of lockstep: pool charges "
                             f"{ledger} unit(s), buffers hold "
                             f"{pooled_occupancy}"),
                    details=(("pool_units", ledger),
                             ("buffer_units", pooled_occupancy))))
        return violations


class MM1EnvelopeMonitor(RunMonitor):
    """Live M/M/1 sanity envelope on the observed flow setup delay.

    Compares the running mean of completed flows' setup delays against
    :func:`repro.analytic.setup_delay_bound` for this run's sending
    rate.  Only meaningful at low offered load (past the knee the bound
    diverges with the real delay) and only once enough flows completed
    for the mean to be stable, so both are gated.
    """

    name = "mm1_envelope"

    #: Don't judge the mean before this many flows completed.
    MIN_COMPLETED = 50
    #: Skip the check past this analytic controller utilization.
    MAX_UTILIZATION = 0.7

    def __init__(self, rate_mbps: float, calibration=None,
                 slack: float = 4.0, frame_len: int = 1000):
        if rate_mbps <= 0:
            raise ValueError(f"rate_mbps must be > 0, got {rate_mbps!r}")
        from ..analytic import (mm1_utilization, packet_in_arrival_rate,
                                setup_delay_bound)
        from ..experiments.calibration import default_calibration
        calibration = (calibration if calibration is not None
                       else default_calibration())
        self.rate_mbps = rate_mbps
        lam = packet_in_arrival_rate(rate_mbps * 1e6, frame_len)
        service = (calibration.controller.service_base
                   + calibration.controller.service_per_byte * 128)
        mu = calibration.controller.cpu_cores / service
        self.utilization = mm1_utilization(lam, mu)
        #: Mean-delay bound: the p0 (mean) M/M/1 sojourn legs + slack.
        self.bound = setup_delay_bound(rate_mbps, calibration,
                                       frame_len=frame_len,
                                       quantile=0.99, slack=slack)

    def check(self, testbed, now: float) -> List[MonitorViolation]:
        if self.utilization >= self.MAX_UTILIZATION:
            return []
        delays = testbed.metrics.delay_tracker.setup_delays()
        if len(delays) < self.MIN_COMPLETED:
            return []
        mean = sum(delays) / len(delays)
        if mean <= self.bound:
            return []
        return [MonitorViolation(
            monitor=self.name, time=now, subject="flow_setup_delay",
            message=(f"mean setup delay {mean * 1e3:.3f} ms exceeds the "
                     f"M/M/1 envelope {self.bound * 1e3:.3f} ms at "
                     f"{self.rate_mbps:g} Mbps "
                     f"(rho={self.utilization:.2f}, "
                     f"n={len(delays)})"),
            details=(("mean_s", mean), ("bound_s", self.bound),
                     ("utilization", self.utilization),
                     ("completed", float(len(delays)))))]


class HealthMonitor:
    """Drives heartbeats and invariant checks over one testbed run.

    Attach before traffic starts; the monitor schedules itself on the
    simulated clock every ``interval`` seconds at ``PRIORITY_LATE`` (so
    a beat observes the instant *after* all same-instant work).  Each
    distinct ``(monitor, subject)`` violation is reported exactly once —
    the first beat that catches it — while every beat's verdict map
    records whether the invariant currently holds, so a transient and a
    persistent corruption are distinguishable from the heartbeat stream.

    ``on_beat`` (optional) receives each :class:`HeartbeatRecord` as it
    is taken — the streaming hook the JSONL exporter uses.
    """

    #: Attribution label for the wall-clock profiler.
    profile_component = "monitor"

    def __init__(self, interval: float = DEFAULT_INTERVAL_S,
                 monitors: Tuple[RunMonitor, ...] = (),
                 on_beat: Optional[Callable[[HeartbeatRecord], None]] = None,
                 max_beats: int = 100_000):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval!r}")
        self.interval = interval
        self.monitors: Tuple[RunMonitor, ...] = tuple(monitors)
        self.on_beat = on_beat
        self.max_beats = max_beats
        self.heartbeats: List[HeartbeatRecord] = []
        self.violations: List[MonitorViolation] = []
        self._seen: set = set()
        self._testbed = None
        self._sim = None
        self._handle = None
        self._last_events = 0

    # -- lifecycle -------------------------------------------------------
    def attach(self, testbed) -> None:
        """Start beating on ``testbed``'s simulated clock."""
        if self._testbed is not None:
            raise RuntimeError("monitor is already attached")
        self._testbed = testbed
        self._sim = testbed.sim
        self._last_events = self._sim.events_scheduled
        self._handle = self._sim.schedule(self.interval, self._beat,
                                          priority=PRIORITY_LATE)

    def detach(self) -> None:
        """Stop beating (cancels the pending heartbeat event).

        The ``on_beat`` hook goes too: it is typically a bound method of
        the observer that holds this monitor.
        """
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._testbed = None
        self._sim = None
        self.on_beat = None

    @property
    def attached(self) -> bool:
        return self._testbed is not None

    # -- the beat --------------------------------------------------------
    def _beat(self) -> None:
        sim = self._sim
        testbed = self._testbed
        now = sim.now
        scheduled = sim.events_scheduled
        record = HeartbeatRecord(
            time=now, beat=len(self.heartbeats),
            events_scheduled=scheduled,
            events_delta=scheduled - self._last_events,
            heap_depth=sim.pending_count())
        self._last_events = scheduled
        for switch in testbed.switches:
            mechanism = switch.mechanism
            if mechanism.partition is not None:
                record.buffer_units[mechanism.partition] = \
                    mechanism.units_in_use
        if testbed.pool is not None:
            record.pool_units = testbed.pool.total_occupancy(now)
        for monitor in self.monitors:
            found = monitor.check(testbed, now)
            record.verdicts[monitor.name] = ("violated" if found else "ok")
            for violation in found:
                key = (violation.monitor, violation.subject)
                if key not in self._seen:
                    self._seen.add(key)
                    self.violations.append(violation)
        self.heartbeats.append(record)
        if self.on_beat is not None:
            self.on_beat(record)
        if len(self.heartbeats) < self.max_beats:
            self._handle = self._sim.schedule(
                self.interval, self._beat, priority=PRIORITY_LATE)
        else:
            self._handle = None

    # -- results ---------------------------------------------------------
    def summary(self) -> dict:
        """Deterministic roll-up: beats, verdict counts, violations."""
        verdicts: Dict[str, Dict[str, int]] = {}
        for beat in self.heartbeats:
            for name, verdict in beat.verdicts.items():
                counts = verdicts.setdefault(name, {"ok": 0, "violated": 0})
                counts[verdict] += 1
        return {
            "beats": len(self.heartbeats),
            "interval": self.interval,
            "verdicts": verdicts,
            "violations": [v.to_dict() for v in self.violations],
        }


def build_monitors(conservation: bool = True, mm1: bool = False,
                   rate_mbps: float = 0.0, calibration=None,
                   mm1_slack: float = 4.0) -> Tuple[RunMonitor, ...]:
    """Monitor set from flat (picklable-config) switches.

    The observer layer calls this with fields off an
    :class:`~repro.obs.capture.ObsConfig`, so the monitor selection can
    ride a frozen config across the fork boundary.
    """
    monitors: List[RunMonitor] = []
    if conservation:
        monitors.append(ConservationMonitor())
    if mm1 and rate_mbps > 0:
        monitors.append(MM1EnvelopeMonitor(rate_mbps,
                                           calibration=calibration,
                                           slack=mm1_slack))
    return tuple(monitors)
