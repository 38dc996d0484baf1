"""Run orchestration: single runs, repetitions and rate sweeps.

The paper's method is: for each sending rate, run the workload 20 times
and report the per-rate statistics.  :func:`run_once` executes one
repetition on a fresh testbed and :func:`finish_run` ends it (serial
and sharded runs alike); :func:`sweep` hands a workload factory's
(rates × repetitions) grid to the :mod:`repro.parallel` engine and
returns the figure-ready rows.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from ..core import BufferConfig
from ..faults import FaultSpec, install_faults
from ..metrics import RunMetrics, Summary, percentile, summarize
from ..metrics.series import ordered_sum
from ..scenarios import SINGLE, ScenarioSpec, build_scenario
from ..simkit import RandomStreams
from ..trafficgen import Workload
from .calibration import TestbedCalibration

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..obs import ObsCollector, RunObserver
    from ..parallel import ProgressTracker, ResultCache

#: Factory signature: (rate_bps, rng) -> Workload.
WorkloadFactory = Callable[[float, RandomStreams], Workload]


def derive_seed(base_seed: int, rate_mbps: float, rep: int) -> int:
    """Seed of one repetition — a pure function of its grid coordinates.

    The parallel engine (:mod:`repro.parallel`) leans on this: seeds may
    depend only on ``(base_seed, rate_mbps, rep)``, never on scheduling
    or completion order, so any worker count and execution order
    reproduces the in-process sweep bit-for-bit.
    """
    return base_seed * 100_003 + int(rate_mbps) * 1_009 + rep


#: ``run_once``'s run shape: seconds of handshake before traffic,
#: seconds of drain after the last send, and how many 100 ms extensions
#: a run may take while flows still complete.  Sweep tasks run at these
#: defaults, and the result cache writes them into every task key.
DEFAULT_SETTLE = 0.020
DEFAULT_DRAIN = 0.250
DEFAULT_MAX_EXTENDS = 20


def run_once(buffer_config: BufferConfig, workload: Workload,
             calibration: Optional[TestbedCalibration] = None,
             seed: int = 0, settle: float = DEFAULT_SETTLE,
             drain: float = DEFAULT_DRAIN,
             max_extends: int = DEFAULT_MAX_EXTENDS,
             obs: Optional["RunObserver"] = None,
             scenario: Optional[ScenarioSpec] = None,
             faults: Optional[FaultSpec] = None,
             on_testbed: Optional[Callable] = None) -> RunMetrics:
    """One repetition: build a fresh testbed, play the workload, snapshot.

    ``scenario`` selects the topology (a
    :class:`~repro.scenarios.ScenarioSpec`); the default is the paper's
    single-switch Fig. 1 testbed, bit-identical to the historical direct
    ``build_testbed`` path.  ``faults`` (a
    :class:`~repro.faults.FaultSpec`) arms deterministic control-plane
    fault injection on the built testbed; ``None`` (or a null spec)
    leaves the run untouched.  ``settle`` gives the OpenFlow handshake time
    to finish before traffic; ``drain`` lets in-flight control traffic
    land after the last send.  If flows are still incomplete at the
    nominal deadline (deep queues at high rates), the run is extended in
    100 ms steps while progress is being made, up to ``max_extends``
    times.  A run that still ends incomplete emits a warning naming its
    scenario, seed and completed flows, and whether the extensions ran
    out or one completed no flow; running out also bumps the
    ``run.incomplete_extends_exhausted`` counter on the testbed registry
    (visible in observed runs' metric snapshots).

    ``obs`` attaches a :class:`repro.obs.RunObserver` to the testbed's
    event emitters before traffic and snapshots its registry at the end;
    the returned metrics are identical with or without it.

    A scenario with an active :class:`~repro.shard.ShardSpec` delegates
    to :func:`repro.shard.execute_sharded`: the same repetition on
    partitioned event loops, ended by the same :func:`finish_run` and
    returning bit-identical metrics.
    ``on_testbed`` (serial runs only) is called with the built testbed
    before the handshake — the hook the shard verify mode uses to record
    event streams without duplicating this function.
    """
    spec = scenario if scenario is not None else SINGLE
    if spec.shard.is_active:
        if obs is not None:
            raise ValueError(
                "sharded execution does not compose with a RunObserver: "
                "its emitters span shard processes; run with shard=off "
                "(sharded runs export shard.* counters instead)")
        if on_testbed is not None:
            raise ValueError("on_testbed is a serial-run hook; sharded "
                             "runs have no single testbed to hand out")
        from ..shard import execute_sharded
        return execute_sharded(
            buffer_config, workload, calibration=calibration, seed=seed,
            settle=settle, drain=drain, max_extends=max_extends,
            scenario=spec, faults=faults).metrics
    testbed = build_scenario(spec, buffer_config, workload,
                             calibration=calibration, seed=seed)
    install_faults(testbed, faults)
    if on_testbed is not None:
        on_testbed(testbed)
    sim = testbed.sim
    if obs is not None:
        obs.attach(testbed, calibration=calibration)
    testbed.controller.start_handshake()
    engine = spec.engine
    if engine.is_hybrid:
        # The engine seam: hybrid scenarios hand traffic to per-pktgen
        # drivers that keep miss-path packets discrete and advance
        # table-hit tails analytically (DESIGN.md §16).
        from ..engine import install_hybrid_drivers
        drivers = install_hybrid_drivers(testbed, calibration=calibration)
        for driver in drivers:
            driver.start(at=settle)
    else:
        for pktgen in testbed.pktgens:
            pktgen.start(at=settle)
    tracker = testbed.metrics.delay_tracker

    def advance(deadline: float) -> int:
        sim.run(until=deadline)
        return tracker.completed_flows

    return finish_run(testbed, workload, advance, settle, drain,
                      max_extends, obs=obs)


def finish_run(testbed, workload: Workload, advance: Callable[[float], int],
               settle: float, drain: float, max_extends: int,
               obs: Optional["RunObserver"] = None,
               land: Optional[Callable[[], None]] = None) -> RunMetrics:
    """End a started run and snapshot it: the one tail every run takes.

    ``advance(deadline)`` executes the run's events through ``deadline``
    and returns how many flows have completed by then:
    ``sim.run(until=deadline)`` for a serial run,
    :meth:`repro.shard.ShardCoordinator.run_until` for a sharded one.
    The run goes to the nominal deadline, then in 100 ms steps while
    flows are still incomplete and completing, up to ``max_extends``
    times.  ``land`` then brings the final state onto ``testbed`` (a
    sharded run grafts its shards' probes onto its never-run parent
    replica), and ``testbed.metrics`` snapshots the active window.
    """
    deadline = settle + workload.duration + drain
    completed = advance(deadline)
    total = testbed.metrics.delay_tracker.total_flows
    extends = 0
    previous_completed = -1
    while (completed < total and extends < max_extends
           and completed != previous_completed):
        previous_completed = completed
        deadline += 0.100
        completed = advance(deadline)
        extends += 1
    if land is not None:
        land()

    metrics = testbed.metrics
    active_end = max(
        settle + workload.duration,
        metrics.capture_up.last_time() or 0.0,
        metrics.capture_down.last_time() or 0.0,
    ) + 0.005
    # Loads are normalized over the send window plus a small margin: a
    # congested post-send drain lengthens delays but must not dilute the
    # reported control-path rate.
    load_end = settle + workload.duration + 0.050
    # ``deadline`` is where the run stopped: ``sim.run(until=...)``
    # leaves the clock there, and a sharded parent's clock never moves.
    snapshot = metrics.snapshot(settle, min(active_end, deadline),
                                load_end=load_end)
    # The metrics suites see only switches; the pool is a testbed-level
    # component, so its peak lands on the snapshot here.
    if testbed.pool is not None:
        snapshot.pool_peak_units = testbed.pool.peak_occupancy
    exhausted = extends >= max_extends
    if snapshot.incomplete and exhausted:
        # Structured counterpart of the warning below: observed runs see
        # it in their metric snapshots / Prometheus export.
        testbed.registry.counter("run.incomplete_extends_exhausted").inc()
    if obs is not None:
        obs.finish(testbed, snapshot)
    testbed.shutdown()
    if snapshot.incomplete:
        reason = (f"its {max_extends} extensions of 100 ms ran out"
                  if exhausted else
                  "no flow completed in its last 100 ms extension")
        # Attributed to the run's caller (run_once's or
        # execute_sharded's), as ``stacklevel=3`` would.  The text names
        # its run, so the caller's ``__warningregistry__`` would keep one
        # entry per incomplete run for the life of the process: each
        # warning gets a throwaway registry instead.
        caller = sys._getframe(2)
        warnings.warn_explicit(
            f"run_once: scenario {testbed.spec.name} seed "
            f"{testbed.rng.root_seed} ended incomplete, "
            f"{snapshot.completed_flows} of {snapshot.total_flows} flows "
            f"complete, because {reason}; its delay statistics cover the "
            f"completed flows only", RuntimeWarning,
            caller.f_code.co_filename, caller.f_lineno,
            module=caller.f_globals.get("__name__"), registry={},
            module_globals=caller.f_globals)
    return snapshot


@dataclass
class RateAggregate:
    """Per-sending-rate statistics over all repetitions (one figure row)."""

    rate_mbps: float
    label: str
    repetitions: int
    # Control path load (Fig. 2 / 9), Mbps averaged over repetitions.
    load_up_mbps: float
    load_down_mbps: float
    # CPU usage (Fig. 3-4 / 10-11), percent.
    controller_usage: Summary
    switch_usage: Summary
    # Delays (Fig. 5-7 / 12), pooled across repetitions, seconds.
    setup_delay: Summary
    controller_delay: Summary
    switch_delay: Summary
    forwarding_delay: Summary
    # Buffer utilization (Fig. 8 / 13), units.
    buffer_avg_units: float
    buffer_max_units: float
    # Request accounting (the §V story).
    packet_ins_per_run: float
    packet_ins_per_flow: float
    retries_per_run: float
    completed_flows: float
    total_flows: int
    packets_dropped: float
    # Resilience accounting (figresilience; zero for faultless sweeps).
    flows_abandoned: float = 0.0
    #: p99 of the pooled setup delays, seconds (0 when nothing pooled).
    setup_delay_p99: float = 0.0
    # Buffer-sharing accounting (figsharing; zero for private buffers).
    #: Mean buffer rejections per run (exhaustion / pool-policy squeeze).
    full_rejections: float = 0.0
    #: Worst shared-pool peak occupancy across repetitions, units.
    pool_peak_units: float = 0.0

    @property
    def completion_rate(self) -> float:
        """Fraction of flows whose setup completed (1.0 = all)."""
        if self.total_flows <= 0:
            return 0.0
        return self.completed_flows / self.total_flows


def aggregate(rate_mbps: float, label: str,
              runs: Sequence[RunMetrics]) -> RateAggregate:
    """Fold repetition snapshots into one figure row."""
    if not runs:
        raise ValueError("cannot aggregate zero runs")
    pooled_setup: List[float] = []
    pooled_ctrl: List[float] = []
    pooled_switch: List[float] = []
    pooled_fwd: List[float] = []
    for run in runs:
        pooled_setup.extend(run.setup_delays)
        pooled_ctrl.extend(run.controller_delays)
        pooled_switch.extend(run.switch_delays)
        pooled_fwd.extend(run.forwarding_delays)
    n = len(runs)
    return RateAggregate(
        rate_mbps=rate_mbps,
        label=label,
        repetitions=n,
        load_up_mbps=ordered_sum(r.control_load_up_mbps for r in runs) / n,
        load_down_mbps=ordered_sum(
            r.control_load_down_mbps for r in runs) / n,
        controller_usage=summarize(
            r.controller_usage_percent for r in runs),
        switch_usage=summarize(r.switch_usage_percent for r in runs),
        setup_delay=summarize(pooled_setup),
        controller_delay=summarize(pooled_ctrl),
        switch_delay=summarize(pooled_switch),
        forwarding_delay=summarize(pooled_fwd),
        buffer_avg_units=ordered_sum(r.buffer_avg_units for r in runs) / n,
        buffer_max_units=max(r.buffer_max_units for r in runs),
        packet_ins_per_run=sum(r.packet_in_count for r in runs) / n,
        packet_ins_per_flow=ordered_sum(
            r.redundant_packet_in_ratio for r in runs) / n,
        retries_per_run=sum(r.packet_in_retry_count for r in runs) / n,
        completed_flows=sum(r.completed_flows for r in runs) / n,
        total_flows=runs[0].total_flows,
        packets_dropped=sum(r.packets_dropped for r in runs) / n,
        flows_abandoned=sum(r.flows_abandoned for r in runs) / n,
        setup_delay_p99=(percentile(pooled_setup, 99)
                         if pooled_setup else 0.0),
        full_rejections=sum(r.buffer_full_rejections for r in runs) / n,
        pool_peak_units=float(max(r.pool_peak_units for r in runs)),
    )


@dataclass
class SweepResult:
    """All rows of one mechanism's rate sweep."""

    label: str
    rows: List[RateAggregate] = field(default_factory=list)

    def row_at(self, rate_mbps: float) -> RateAggregate:
        """The row for an exact sending rate."""
        for row in self.rows:
            if row.rate_mbps == rate_mbps:
                return row
        raise KeyError(f"no row at {rate_mbps} Mbps in {self.label!r}")

    def series(self, getter: Callable[[RateAggregate], float]) -> List[float]:
        """Extract one metric across the sweep (figure y-values)."""
        return [getter(row) for row in self.rows]

    @property
    def rates(self) -> List[float]:
        """Figure x-values."""
        return [row.rate_mbps for row in self.rows]


def sweep(buffer_config: BufferConfig, workload_factory: WorkloadFactory,
          rates_mbps: Sequence[float], repetitions: int,
          calibration: Optional[TestbedCalibration] = None,
          base_seed: int = 0, workers: Optional[int] = None,
          cache: Optional["ResultCache"] = None,
          progress: "None | bool | ProgressTracker" = None,
          obs: Optional["ObsCollector"] = None,
          scenario: Optional[ScenarioSpec] = None,
          faults: Optional[FaultSpec] = None) -> SweepResult:
    """The paper's method: repetitions at every sending rate.

    One :class:`~repro.parallel.SweepJob` on the :mod:`repro.parallel`
    engine: without ``workers`` (or at ``workers=1``) it runs in this
    process, with ``workers=N`` on a fork pool of ``N``; ``cache`` and
    ``progress`` are the engine's result cache and telemetry.  Rows are
    bit-identical either way.  A repetition that fails every attempt of
    the engine's bounded retry raises
    :class:`~repro.parallel.SweepExecutionError`, naming it.

    ``obs`` collects per-repetition traces and metric snapshots into a
    :class:`repro.obs.ObsCollector` (in-process runs also stream each
    heartbeat to its ``heartbeat_sink`` as it fires); ``scenario``
    selects the topology every repetition runs on.
    """
    from ..parallel import SweepExecutionError, SweepJob, run_sweep_jobs
    job = SweepJob(config=buffer_config, factory=workload_factory,
                   rates_mbps=tuple(rates_mbps), repetitions=repetitions,
                   calibration=calibration, base_seed=base_seed,
                   scenario=scenario, faults=faults)
    sweeps, report = run_sweep_jobs(
        [job], workers=1 if workers is None else workers, cache=cache,
        progress=progress, obs=obs)
    if not report.ok:
        raise SweepExecutionError(report)
    return sweeps[job.label]
