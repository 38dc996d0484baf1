"""Figure registry: every table/figure of the paper, regenerable.

Two underlying experiments feed all figures:

* **benefits** (workload A, §IV): no-buffer vs buffer-16 vs buffer-256
  over the sending-rate sweep → Figs. 2(a,b), 3, 4, 5, 6, 7, 8.
* **mechanism** (workload B, §V): packet-granularity vs flow-granularity
  (both at 256 units) → Figs. 9(a,b), 10, 11, 12(a,b), 13(a,b).

Each :class:`FigureSpec` names its metric extractor(s) so one sweep run
serves every figure of its experiment — exactly like the paper measured
everything in the same testbed runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from ..bufferpool import (SCOPE_PORT, PoolSpec, delay_pool, dt_pool,
                          static_pool)
from ..core import (MECHANISM_FLOW, MECHANISM_PACKET, BufferConfig,
                    buffer_16, buffer_256, flow_buffer_256, no_buffer)
from ..metrics import summarize
from ..scenarios import fanin_scenario, line_scenario
from ..simkit import RandomStreams
from ..trafficgen import (Workload, batched_multi_packet_flows,
                          flow_train_flows, single_packet_flows)
from .calibration import (FULL_RATE_SWEEP_MBPS, FULL_REPETITIONS,
                          MECHANISM_RATE_SWEEP_MBPS, QUICK_RATE_SWEEP_MBPS,
                          QUICK_REPETITIONS, TestbedCalibration,
                          WORKLOAD_A_FLOWS, WORKLOAD_A_FRAME_LEN,
                          WORKLOAD_B_BATCH_SIZE, WORKLOAD_B_FLOWS,
                          WORKLOAD_B_PACKETS_PER_FLOW,
                          prototype_calibration)
from .runner import RateAggregate, SweepResult, sweep

MetricGetter = Callable[[RateAggregate], float]


def workload_a_factory(n_flows: int = WORKLOAD_A_FLOWS,
                       frame_len: int = WORKLOAD_A_FRAME_LEN
                       ) -> Callable[[float, RandomStreams], Workload]:
    """§IV workload: ``n_flows`` single-packet flows per run."""
    def factory(rate_bps: float, rng: RandomStreams) -> Workload:
        return single_packet_flows(rate_bps, n_flows=n_flows,
                                   frame_len=frame_len, rng=rng)
    return factory


def workload_b_factory(n_flows: int = WORKLOAD_B_FLOWS,
                       packets_per_flow: int = WORKLOAD_B_PACKETS_PER_FLOW,
                       batch_size: int = WORKLOAD_B_BATCH_SIZE
                       ) -> Callable[[float, RandomStreams], Workload]:
    """§V workload: cross-sequenced batched flows."""
    def factory(rate_bps: float, rng: RandomStreams) -> Workload:
        return batched_multi_packet_flows(
            rate_bps, n_flows=n_flows, packets_per_flow=packets_per_flow,
            batch_size=batch_size, rng=rng)
    return factory


@dataclass
class ExperimentData:
    """Sweeps of one experiment, keyed by mechanism label."""

    name: str
    sweeps: Dict[str, SweepResult] = field(default_factory=dict)
    #: Engine telemetry when the run went through :mod:`repro.parallel`
    #: (an :class:`~repro.parallel.EngineReport`); None for serial runs.
    report: Optional[object] = None

    @property
    def rates(self) -> Sequence[float]:
        """Common x-axis of every sweep."""
        first = next(iter(self.sweeps.values()))
        return first.rates

    def series(self, label: str, getter: MetricGetter) -> list[float]:
        """One mechanism's y-values for one metric."""
        return self.sweeps[label].series(getter)


def _run_experiment_sweeps(name, configs, factory, rates_mbps, repetitions,
                           calibration, base_seed, workers, cache,
                           progress, obs=None, scenario=None,
                           faults=None) -> ExperimentData:
    """Run one experiment's sweeps, serially or on the parallel engine.

    The engine path shards *all* mechanisms' (rates × repetitions) tasks
    into one worker pool, so e.g. the three §IV sweeps interleave instead
    of running back-to-back; results are bit-identical either way.
    ``obs`` (a :class:`repro.obs.ObsCollector`) captures traces and
    metric snapshots on whichever path runs; ``scenario`` (a
    :class:`repro.scenarios.ScenarioSpec`) selects the topology every
    repetition runs on; ``faults`` (a :class:`repro.faults.FaultSpec`)
    arms control-plane fault injection on each one.
    """
    data = ExperimentData(name=name)
    if workers is None and cache is None and progress is None:
        for config in configs:
            data.sweeps[config.label] = sweep(
                config, factory, rates_mbps, repetitions,
                calibration=calibration, base_seed=base_seed, obs=obs,
                scenario=scenario, faults=faults)
        return data
    from ..parallel import SweepJob, run_sweep_jobs
    jobs = [SweepJob(config=config, factory=factory,
                     rates_mbps=tuple(rates_mbps), repetitions=repetitions,
                     calibration=calibration, base_seed=base_seed,
                     scenario=scenario, faults=faults)
            for config in configs]
    sweeps, report = run_sweep_jobs(jobs, workers=workers, cache=cache,
                                    progress=progress, obs=obs)
    for config in configs:
        data.sweeps[config.label] = sweeps[config.label]
    data.report = report
    return data


def run_benefits_experiment(
        rates_mbps: Optional[Sequence[float]] = None,
        repetitions: Optional[int] = None,
        calibration: Optional[TestbedCalibration] = None,
        n_flows: int = WORKLOAD_A_FLOWS,
        quick: bool = True, base_seed: int = 0,
        workers: Optional[int] = None, cache=None,
        progress=None, obs=None, scenario=None,
        faults=None) -> ExperimentData:
    """§IV: the three buffer settings over the sending-rate sweep."""
    if rates_mbps is None:
        rates_mbps = QUICK_RATE_SWEEP_MBPS if quick else FULL_RATE_SWEEP_MBPS
    if repetitions is None:
        repetitions = QUICK_REPETITIONS if quick else FULL_REPETITIONS
    factory = workload_a_factory(n_flows=n_flows)
    return _run_experiment_sweeps(
        "benefits", (no_buffer(), buffer_16(), buffer_256()), factory,
        rates_mbps, repetitions, calibration, base_seed, workers, cache,
        progress, obs=obs, scenario=scenario, faults=faults)


def run_mechanism_experiment(
        rates_mbps: Optional[Sequence[float]] = None,
        repetitions: Optional[int] = None,
        calibration: Optional[TestbedCalibration] = None,
        n_flows: int = WORKLOAD_B_FLOWS,
        packets_per_flow: int = WORKLOAD_B_PACKETS_PER_FLOW,
        quick: bool = True, base_seed: int = 0,
        workers: Optional[int] = None, cache=None,
        progress=None, obs=None, scenario=None,
        faults=None) -> ExperimentData:
    """§V: packet-granularity vs flow-granularity, both at 256 units.

    Runs on :func:`~repro.experiments.calibration.prototype_calibration`
    by default — the authors' patched-OVS testbed (see DESIGN.md).
    """
    if rates_mbps is None:
        rates_mbps = (QUICK_RATE_SWEEP_MBPS if quick
                      else MECHANISM_RATE_SWEEP_MBPS)
    if repetitions is None:
        repetitions = QUICK_REPETITIONS if quick else FULL_REPETITIONS
    if calibration is None:
        calibration = prototype_calibration()
    factory = workload_b_factory(n_flows=n_flows,
                                 packets_per_flow=packets_per_flow)
    return _run_experiment_sweeps(
        "mechanism", (buffer_256(), flow_buffer_256()), factory,
        rates_mbps, repetitions, calibration, base_seed, workers, cache,
        progress, obs=obs, scenario=scenario, faults=faults)


# ---------------------------------------------------------------------------
# Path-length experiment (line scenarios)
# ---------------------------------------------------------------------------

#: Line lengths of the control-overhead-vs-path-length figure.
PATH_LENGTHS = (1, 2, 4)
#: Reduced rate set for quick path-length runs (each run costs ~n
#: switches; the full mechanism sweep at every length is a long study).
PATH_QUICK_RATES_MBPS = (20.0, 60.0)


@dataclass
class PathExperimentData:
    """Sweeps of the path-length experiment.

    One sweep per (mechanism, line length), keyed by the composite
    label ``"buffer-256@line:2"`` (see :meth:`key`).
    """

    name: str
    lengths: tuple
    labels: tuple
    sweeps: Dict[str, SweepResult] = field(default_factory=dict)
    #: Engine telemetry (an :class:`~repro.parallel.EngineReport`).
    report: Optional[object] = None

    @staticmethod
    def key(label: str, length: int) -> str:
        """Sweep key of one (mechanism, path length) combination."""
        return f"{label}@line:{length}"

    @property
    def rates(self) -> Sequence[float]:
        """Common rate axis of every sweep."""
        first = next(iter(self.sweeps.values()))
        return first.rates

    def sweep_for(self, label: str, length: int) -> SweepResult:
        """One mechanism's sweep on one line length."""
        return self.sweeps[self.key(label, length)]

    def series_vs_length(self, label: str, getter: MetricGetter,
                         rate_mbps: Optional[float] = None) -> list[float]:
        """One mechanism's metric against path length, at one rate.

        ``rate_mbps`` defaults to the sweep's highest rate, where the
        paper's control-plane effects are most pronounced.
        """
        rate = rate_mbps if rate_mbps is not None else max(self.rates)
        return [getter(self.sweep_for(label, length).row_at(rate))
                for length in self.lengths]


def run_path_experiment(
        lengths: Sequence[int] = PATH_LENGTHS,
        rates_mbps: Optional[Sequence[float]] = None,
        repetitions: Optional[int] = None,
        calibration: Optional[TestbedCalibration] = None,
        n_flows: int = WORKLOAD_B_FLOWS,
        packets_per_flow: int = WORKLOAD_B_PACKETS_PER_FLOW,
        quick: bool = True, base_seed: int = 0,
        workers: Optional[int] = None, cache=None,
        progress=None, obs=None) -> PathExperimentData:
    """Control overhead vs path length: the §V win compounds with hops.

    Runs workload B through ``line(n)`` scenarios for every ``n`` in
    ``lengths``, packet-granularity vs flow-granularity buffering (the
    §V pair, on the prototype calibration).  A reactive control plane
    pays one flow setup per switch on the path, so control-path load and
    ``packet_in`` counts grow roughly linearly with ``n`` — and the
    flow-granularity mechanism's per-setup saving compounds with it.

    Always executes on the :mod:`repro.parallel` engine (inline when
    ``workers=1``): the composite per-length labels keep sweeps, cache
    entries and observations distinct across topologies.
    """
    if not lengths:
        raise ValueError("lengths must name at least one line length")
    if rates_mbps is None:
        rates_mbps = (PATH_QUICK_RATES_MBPS if quick
                      else MECHANISM_RATE_SWEEP_MBPS)
    if repetitions is None:
        repetitions = QUICK_REPETITIONS if quick else FULL_REPETITIONS
    if calibration is None:
        calibration = prototype_calibration()
    factory = workload_b_factory(n_flows=n_flows,
                                 packets_per_flow=packets_per_flow)
    configs = (buffer_256(), flow_buffer_256())
    data = PathExperimentData(name="path", lengths=tuple(lengths),
                              labels=tuple(c.label for c in configs))
    from ..parallel import SweepJob, run_sweep_jobs
    jobs = [SweepJob(config=config, factory=factory,
                     rates_mbps=tuple(rates_mbps), repetitions=repetitions,
                     calibration=calibration, base_seed=base_seed,
                     scenario=line_scenario(length),
                     label_override=data.key(config.label, length))
            for length in lengths for config in configs]
    sweeps, report = run_sweep_jobs(jobs, workers=workers, cache=cache,
                                    progress=progress, obs=obs)
    for job in jobs:
        data.sweeps[job.label] = sweeps[job.label]
    data.report = report
    return data


# ---------------------------------------------------------------------------
# Resilience experiment (control-channel loss sweep)
# ---------------------------------------------------------------------------

#: Control-channel loss grid of the resilience figure; 0.0 is the
#: faultless baseline every other point is read against.
RESILIENCE_LOSS_RATES = (0.0, 0.005, 0.01, 0.02, 0.05)
#: Fixed sending rate for the loss sweep — comfortably inside every
#: mechanism's stable region, so completion differences are attributable
#: to the lossy control channel, not congestion.
RESILIENCE_RATE_MBPS = 30.0


@dataclass
class ResilienceExperimentData:
    """Sweeps of the resilience experiment.

    One single-rate sweep per (mechanism, loss rate), keyed by the
    composite label ``"flow-buffer-256@loss:0.01"`` (see :meth:`key`).
    """

    name: str
    loss_rates: tuple
    labels: tuple
    rate_mbps: float
    sweeps: Dict[str, SweepResult] = field(default_factory=dict)
    #: Engine telemetry (an :class:`~repro.parallel.EngineReport`).
    report: Optional[object] = None

    @staticmethod
    def key(label: str, loss: float) -> str:
        """Sweep key of one (mechanism, loss rate) combination."""
        return f"{label}@loss:{loss:g}"

    def sweep_for(self, label: str, loss: float) -> SweepResult:
        """One mechanism's sweep at one loss rate."""
        return self.sweeps[self.key(label, loss)]

    def row_for(self, label: str, loss: float) -> RateAggregate:
        """The single figure row of one (mechanism, loss) combination."""
        return self.sweep_for(label, loss).row_at(self.rate_mbps)

    def series_vs_loss(self, label: str,
                       getter: MetricGetter) -> list[float]:
        """One mechanism's metric against control-channel loss rate."""
        return [getter(self.row_for(label, loss))
                for loss in self.loss_rates]


def run_resilience_experiment(
        loss_rates: Sequence[float] = RESILIENCE_LOSS_RATES,
        rate_mbps: float = RESILIENCE_RATE_MBPS,
        repetitions: Optional[int] = None,
        calibration: Optional[TestbedCalibration] = None,
        n_flows: int = WORKLOAD_A_FLOWS,
        quick: bool = True, base_seed: int = 0,
        workers: Optional[int] = None, cache=None,
        progress=None, obs=None) -> ResilienceExperimentData:
    """Flow setup under a lossy control channel: the re-request payoff.

    Sweeps symmetric control-channel loss over ``loss_rates`` at one
    fixed sending rate, for the no-buffer, packet-granularity and
    flow-granularity mechanisms.  Only the flow-granularity mechanism
    (Algorithm 1) re-requests on timeout: under loss it shows
    ``retries_sent > 0`` and keeps its completion rate near 100 %,
    while the other two silently lose whatever the channel eats — the
    resilience benefit of §V's buffering design, which no figure of the
    paper measures directly.

    Always executes on the :mod:`repro.parallel` engine (inline when
    ``workers=1``): composite per-loss labels keep sweeps, cache entries
    and observations distinct across fault specs.
    """
    from ..faults import loss_fault
    if not loss_rates:
        raise ValueError("loss_rates must name at least one loss rate")
    for loss in loss_rates:
        if not 0.0 <= loss < 1.0:
            raise ValueError(
                f"loss rates must be in [0, 1), got {loss!r}")
    if repetitions is None:
        repetitions = QUICK_REPETITIONS if quick else FULL_REPETITIONS
    factory = workload_a_factory(n_flows=n_flows)
    configs = (no_buffer(), buffer_256(), flow_buffer_256())
    data = ResilienceExperimentData(
        name="resilience", loss_rates=tuple(loss_rates),
        labels=tuple(c.label for c in configs), rate_mbps=rate_mbps)
    from ..parallel import SweepJob, run_sweep_jobs
    jobs = [SweepJob(config=config, factory=factory,
                     rates_mbps=(rate_mbps,), repetitions=repetitions,
                     calibration=calibration, base_seed=base_seed,
                     faults=(loss_fault(loss) if loss > 0 else None),
                     label_override=data.key(config.label, loss))
            for loss in data.loss_rates for config in configs]
    sweeps, report = run_sweep_jobs(jobs, workers=workers, cache=cache,
                                    progress=progress, obs=obs)
    for job in jobs:
        data.sweeps[job.label] = sweeps[job.label]
    data.report = report
    return data


# ---------------------------------------------------------------------------
# Buffer-sharing experiment (shared pool policies under fanin pressure)
# ---------------------------------------------------------------------------

#: Dynamic-Threshold sharing factors swept by the figsharing grid.
SHARING_ALPHAS = (0.5, 1.0, 2.0, 4.0)
#: Control-channel loss grid; 0.0 is the faultless baseline.
SHARING_LOSS_RATES = (0.0, 0.01, 0.02)
#: Fixed sending rate for the sharing study — past buffer-16's ~30-40
#: Mbps exhaustion knee (Fig. 8), so per-port partitions genuinely
#: contend for units and the admission policies have something to
#: arbitrate.
SHARING_RATE_MBPS = 40.0
#: Fan-in sources of the sharing scenario (the contention hot spot).
SHARING_FANIN = 4
#: Per-switch buffer units (the §IV "buffer-16" setting).
SHARING_CAPACITY = 16


def sharing_pool_specs(
        alphas: Sequence[float] = SHARING_ALPHAS) -> tuple:
    """The figsharing policy grid, all partitioned per ingress port.

    ``static`` is the baseline (private quotas under pool accounting),
    then classic Dynamic Threshold at each sharing factor in ``alphas``,
    then the BShare-style delay-aware policy.
    """
    return ((static_pool(scope=SCOPE_PORT),)
            + tuple(dt_pool(alpha=alpha, scope=SCOPE_PORT)
                    for alpha in alphas)
            + (delay_pool(scope=SCOPE_PORT),))


@dataclass
class SharingExperimentData:
    """Sweeps of the buffer-sharing experiment.

    One single-rate sweep per (mechanism, pool policy, loss rate),
    keyed by the composite label ``"buffer-16+dt:alpha=2/port@loss:0.01"``
    (see :meth:`key`).
    """

    name: str
    pool_names: tuple
    loss_rates: tuple
    labels: tuple
    rate_mbps: float
    sweeps: Dict[str, SweepResult] = field(default_factory=dict)
    #: Engine telemetry (an :class:`~repro.parallel.EngineReport`).
    report: Optional[object] = None

    @staticmethod
    def key(label: str, pool_name: str, loss: float) -> str:
        """Sweep key of one (mechanism, pool, loss) combination."""
        return f"{label}+{pool_name}@loss:{loss:g}"

    def sweep_for(self, label: str, pool_name: str,
                  loss: float) -> SweepResult:
        """One combination's sweep."""
        return self.sweeps[self.key(label, pool_name, loss)]

    def row_for(self, label: str, pool_name: str,
                loss: float) -> RateAggregate:
        """The single figure row of one (mechanism, pool, loss) cell."""
        return self.sweep_for(label, pool_name, loss).row_at(self.rate_mbps)

    def series_vs_loss(self, label: str, pool_name: str,
                       getter: MetricGetter) -> list[float]:
        """One (mechanism, pool)'s metric against control-channel loss."""
        return [getter(self.row_for(label, pool_name, loss))
                for loss in self.loss_rates]


def run_figsharing_experiment(
        loss_rates: Sequence[float] = SHARING_LOSS_RATES,
        rate_mbps: float = SHARING_RATE_MBPS,
        fanin: int = SHARING_FANIN,
        pools: Optional[Sequence[PoolSpec]] = None,
        repetitions: Optional[int] = None,
        calibration: Optional[TestbedCalibration] = None,
        n_flows: int = WORKLOAD_A_FLOWS,
        quick: bool = True, base_seed: int = 0,
        workers: Optional[int] = None, cache=None,
        progress=None, obs=None) -> SharingExperimentData:
    """Shared-buffer admission policies under fan-in contention.

    Sweeps {static, dt(α), delay} pool policies × {packet, flow}
    granularity on a ``fanin:K`` scenario at one fixed sending rate,
    under 0-2 % control-plane loss.  Every cell shares the same total
    unit budget (``SHARING_CAPACITY`` per switch), partitioned per
    ingress port — so the *only* axis is how the budget is arbitrated.
    Static quotas reject bursts a DT pool absorbs by borrowing idle
    ports' units: ``full_rejections`` falls as α grows while
    ``pool_peak_units`` approaches the budget ceiling.

    Always executes on the :mod:`repro.parallel` engine (inline when
    ``workers=1``): composite per-cell labels keep sweeps, cache entries
    and observations distinct across pool specs and fault specs.
    """
    from ..faults import loss_fault
    if not loss_rates:
        raise ValueError("loss_rates must name at least one loss rate")
    for loss in loss_rates:
        if not 0.0 <= loss < 1.0:
            raise ValueError(
                f"loss rates must be in [0, 1), got {loss!r}")
    if pools is None:
        pools = sharing_pool_specs()
    if repetitions is None:
        repetitions = QUICK_REPETITIONS if quick else FULL_REPETITIONS
    factory = workload_a_factory(n_flows=n_flows)
    configs = (
        BufferConfig(mechanism=MECHANISM_PACKET,
                     capacity=SHARING_CAPACITY),
        BufferConfig(mechanism=MECHANISM_FLOW, capacity=SHARING_CAPACITY),
    )
    data = SharingExperimentData(
        name="sharing", pool_names=tuple(p.name for p in pools),
        loss_rates=tuple(loss_rates),
        labels=tuple(c.label for c in configs), rate_mbps=rate_mbps)
    scenario = fanin_scenario(fanin)
    from ..parallel import SweepJob, run_sweep_jobs
    jobs = [SweepJob(config=config, factory=factory,
                     rates_mbps=(rate_mbps,), repetitions=repetitions,
                     calibration=calibration, base_seed=base_seed,
                     scenario=scenario.with_pool(pool),
                     faults=(loss_fault(loss) if loss > 0 else None),
                     label_override=data.key(config.label, pool.name, loss))
            for loss in data.loss_rates for pool in pools
            for config in configs]
    sweeps, report = run_sweep_jobs(jobs, workers=workers, cache=cache,
                                    progress=progress, obs=obs)
    for job in jobs:
        data.sweeps[job.label] = sweeps[job.label]
    data.report = report
    return data


# ---------------------------------------------------------------------------
# Scale experiment (hybrid execution engine vs packet engine)
# ---------------------------------------------------------------------------

#: Flow counts swept by figscale.  The top of the ladder is the ISSUE's
#: 10^6-flow target; only counts up to :data:`SCALE_PACKET_CAP` are also
#: run on the packet engine (beyond that the packet engine is exactly
#: what the hybrid engine exists to avoid).
SCALE_FLOW_COUNTS = (1_000, 10_000, 100_000, 1_000_000)
SCALE_PACKET_CAP = 10_000
#: The scale workload (:func:`~repro.trafficgen.flow_train_flows`):
#: paced UDP trains whose aggregate offered load —
#: ``flow_rate × packets_per_flow`` ≈ 8 000 pps of 1000-byte frames, ρ
#: ≈ 0.64 on the 100 Mbps data link — stays inside the fluid model's
#: validity region (no cross-flow queueing at the shared source NIC,
#: which the per-flow analytic advance deliberately does not model;
#: DESIGN.md §16).  Within that budget, long trains at a low flow
#: arrival rate maximise the packets the hybrid engine advances
#: analytically per discrete flow setup, which is what the speedup
#: over the packet engine scales with.
SCALE_PACKETS_PER_FLOW = 64
SCALE_FLOW_RATE = 125.0
SCALE_PACING_MBPS = 4.0
#: Pinned cross-engine tolerance on the figscale deviation columns
#: (relative |hybrid − packet| / packet on mean setup and forwarding
#: delay).  Re-exported from the engine package so the experiment, the
#: unit tests and the CI scale-smoke assert the same number.
SCALE_DEVIATION_TOLERANCE = 0.15


@dataclass
class ScalePoint:
    """One (flow count, engine) cell of the figscale grid."""

    n_flows: int
    engine: str
    #: Wall-clock seconds of the run_once call (workload build excluded).
    seconds: float
    completed: int
    total: int
    setup_delay_mean: float
    forwarding_delay_mean: float
    #: Logical packets the run stands for (heads + tails).
    logical_packets: int

    @property
    def flows_per_sec(self) -> float:
        """Simulated flows per wall-clock second — the scaling headline."""
        return self.n_flows / self.seconds if self.seconds > 0 else 0.0


@dataclass
class ScaleExperimentData:
    """All cells of the figscale grid, keyed by (flow count, engine)."""

    name: str
    flow_counts: tuple
    packet_cap: int
    points: Dict[tuple, ScalePoint] = field(default_factory=dict)

    def point(self, n_flows: int, engine: str) -> ScalePoint:
        """The cell for one (flow count, engine) combination."""
        return self.points[(n_flows, engine)]

    def has_packet_point(self, n_flows: int) -> bool:
        """True when the packet engine also ran this count."""
        return (n_flows, "packet") in self.points

    def speedup_at(self, n_flows: int) -> float:
        """Packet-engine wall time over hybrid wall time at one count."""
        hybrid = self.point(n_flows, "hybrid")
        packet = self.point(n_flows, "packet")
        return packet.seconds / hybrid.seconds if hybrid.seconds else 0.0

    def deviation_at(self, n_flows: int) -> Dict[str, float]:
        """Relative hybrid-vs-packet deviation of the delay means."""
        hybrid = self.point(n_flows, "hybrid")
        packet = self.point(n_flows, "packet")
        out = {}
        for attr in ("setup_delay_mean", "forwarding_delay_mean"):
            reference = getattr(packet, attr)
            measured = getattr(hybrid, attr)
            out[attr] = (abs(measured - reference) / reference
                         if reference else 0.0)
        return out


def scale_workload(n_flows: int,
                   packets_per_flow: int = SCALE_PACKETS_PER_FLOW,
                   flow_rate: float = SCALE_FLOW_RATE,
                   pacing_mbps: float = SCALE_PACING_MBPS):
    """The canonical figscale workload at one flow count (lazy tails)."""
    from ..simkit import mbps
    return flow_train_flows(mbps(pacing_mbps), n_flows=n_flows,
                            packets_per_flow=packets_per_flow,
                            flow_rate=flow_rate)


def run_figscale_experiment(
        flow_counts: Sequence[int] = SCALE_FLOW_COUNTS,
        packet_cap: int = SCALE_PACKET_CAP,
        packets_per_flow: int = SCALE_PACKETS_PER_FLOW,
        flow_rate: float = SCALE_FLOW_RATE,
        pacing_mbps: float = SCALE_PACING_MBPS,
        calibration: Optional[TestbedCalibration] = None,
        seed: int = 7, config: Optional[BufferConfig] = None,
        progress: Optional[Callable[[str], None]] = None
        ) -> ScaleExperimentData:
    """Hybrid-vs-packet scaling study: wall time, deviation, speedup.

    For every count in ``flow_counts`` the hybrid engine runs the scale
    workload once under a wall-clock timer; counts up to ``packet_cap``
    are additionally run on the packet engine (same logical traffic via
    :meth:`~repro.trafficgen.AggregateWorkload.materialize`), giving the
    figure's deviation and speedup columns.  Runs are deliberately
    serial and uncached — wall time *is* the measured quantity here, so
    neither the result cache nor worker parallelism may touch it.
    """
    import time as _time
    from ..engine import HYBRID
    from ..scenarios import SINGLE
    from .runner import run_once
    if not flow_counts:
        raise ValueError("flow_counts must name at least one count")
    if config is None:
        config = flow_buffer_256()
    data = ScaleExperimentData(name="scale",
                               flow_counts=tuple(flow_counts),
                               packet_cap=packet_cap)

    def _run(n_flows: int, engine_name: str, workload) -> ScalePoint:
        scenario = (SINGLE.with_engine(HYBRID)
                    if engine_name == "hybrid" else SINGLE)
        logical = workload.n_packets
        started = _time.perf_counter()
        metrics = run_once(config, workload, calibration=calibration,
                           seed=seed, scenario=scenario)
        seconds = _time.perf_counter() - started
        point = ScalePoint(
            n_flows=n_flows, engine=engine_name, seconds=seconds,
            completed=metrics.completed_flows, total=metrics.total_flows,
            setup_delay_mean=summarize(metrics.setup_delays).mean,
            forwarding_delay_mean=summarize(metrics.forwarding_delays).mean,
            logical_packets=logical)
        data.points[(n_flows, engine_name)] = point
        if progress is not None:
            progress(f"figscale {engine_name}@{n_flows}: "
                     f"{seconds:.2f}s wall, "
                     f"{point.flows_per_sec:,.0f} flows/s")
        return point

    for n_flows in data.flow_counts:
        workload = scale_workload(n_flows, packets_per_flow=packets_per_flow,
                                  flow_rate=flow_rate,
                                  pacing_mbps=pacing_mbps)
        _run(n_flows, "hybrid", workload)
        if n_flows <= packet_cap:
            _run(n_flows, "packet", workload.materialize())
    return data


# ---------------------------------------------------------------------------
# Figure registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FigureSpec:
    """Declarative description of one paper figure."""

    figure_id: str
    title: str
    experiment: str                      # "benefits" or "mechanism"
    metric: MetricGetter
    unit: str
    labels: tuple
    paper_shape: str                     # the §5 DESIGN.md shape target


def _ms(getter: Callable[[RateAggregate], float]) -> MetricGetter:
    """Convert a seconds-valued getter into milliseconds."""
    return lambda row: getter(row) * 1000.0

_BENEFIT_LABELS = ("no-buffer", "buffer-16", "buffer-256")
_MECH_LABELS = ("buffer-256", "flow-buffer-256")

FIGURES: Dict[str, FigureSpec] = {
    "fig2a": FigureSpec(
        "fig2a", "Control path load, switch->controller", "benefits",
        lambda r: r.load_up_mbps, "Mbps", _BENEFIT_LABELS,
        "no-buffer ~linear in rate; buffered low; buffer-16 bends up past "
        "its ~30-40 Mbps exhaustion knee"),
    "fig2b": FigureSpec(
        "fig2b", "Control path load, controller->switch", "benefits",
        lambda r: r.load_down_mbps, "Mbps", _BENEFIT_LABELS,
        "same ordering as 2a, with an even larger buffered reduction"),
    "fig3": FigureSpec(
        "fig3", "Controller usage", "benefits",
        lambda r: r.controller_usage.mean, "%", _BENEFIT_LABELS,
        "no-buffer superlinear past ~50 Mbps; buffer-256 lowest and stable"),
    "fig4": FigureSpec(
        "fig4", "Switch usage", "benefits",
        lambda r: r.switch_usage.mean, "%", _BENEFIT_LABELS,
        "all three similar; buffered slightly above no-buffer (~+5%)"),
    "fig5": FigureSpec(
        "fig5", "Flow setup delay", "benefits",
        _ms(lambda r: r.setup_delay.mean), "ms", _BENEFIT_LABELS,
        "no-buffer large/erratic past ~70 Mbps; buffer-256 low and flat"),
    "fig6": FigureSpec(
        "fig6", "Controller delay", "benefits",
        _ms(lambda r: r.controller_delay.mean), "ms", _BENEFIT_LABELS,
        "no-buffer > buffer-16 > buffer-256; no-buffer rises from ~60 Mbps"),
    "fig7": FigureSpec(
        "fig7", "Switch delay", "benefits",
        _ms(lambda r: r.switch_delay.mean), "ms", _BENEFIT_LABELS,
        "flat for all below ~75 Mbps, then no-buffer blows up (bus)"),
    "fig8": FigureSpec(
        "fig8", "Buffer utilization (max units)", "benefits",
        lambda r: r.buffer_max_units, "units",
        ("buffer-16", "buffer-256"),
        "buffer-16 pegged at 16 past ~30 Mbps; buffer-256 grows but stays "
        "well under 256 (<=~80)"),
    "fig9a": FigureSpec(
        "fig9a", "Control path load, switch->controller", "mechanism",
        lambda r: r.load_up_mbps, "Mbps", _MECH_LABELS,
        "flow-gran low and flat; pkt-gran grows past ~30 Mbps"),
    "fig9b": FigureSpec(
        "fig9b", "Control path load, controller->switch", "mechanism",
        lambda r: r.load_down_mbps, "Mbps", _MECH_LABELS,
        "flow-gran lower in the reverse direction too"),
    "fig10": FigureSpec(
        "fig10", "Controller usage", "mechanism",
        lambda r: r.controller_usage.mean, "%", _MECH_LABELS,
        "flow-gran bounded; pkt-gran higher, worst past 70 Mbps"),
    "fig11": FigureSpec(
        "fig11", "Switch usage", "mechanism",
        lambda r: r.switch_usage.mean, "%", _MECH_LABELS,
        "comparable; flow-gran not worse"),
    "fig12a": FigureSpec(
        "fig12a", "Flow setup delay", "mechanism",
        _ms(lambda r: r.setup_delay.mean), "ms", _MECH_LABELS,
        "pkt-gran slightly better at low rates; crossover near ~80 Mbps"),
    "fig12b": FigureSpec(
        "fig12b", "Flow forwarding delay", "mechanism",
        _ms(lambda r: r.forwarding_delay.mean), "ms", _MECH_LABELS,
        "flow-gran clearly wins at high rates (~37% at 95 Mbps)"),
    "fig13a": FigureSpec(
        "fig13a", "Buffer utilization (avg units)", "mechanism",
        lambda r: r.buffer_avg_units, "units", _MECH_LABELS,
        "flow-gran <= ~5 units; pkt-gran grows steeply with rate"),
    "fig13b": FigureSpec(
        "fig13b", "Buffer utilization (max units)", "mechanism",
        lambda r: r.buffer_max_units, "units", _MECH_LABELS,
        "same ordering on maxima"),
}


def figure_series(spec: FigureSpec,
                  data: ExperimentData) -> Dict[str, list[float]]:
    """Extract the figure's y-series per mechanism label."""
    if data.name != spec.experiment:
        raise ValueError(
            f"{spec.figure_id} needs the {spec.experiment!r} experiment, "
            f"got {data.name!r}")
    return {label: data.series(label, spec.metric) for label in spec.labels}
