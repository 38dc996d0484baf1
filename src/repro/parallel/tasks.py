"""Sweep sharding: per-(mechanism, rate, repetition) task units.

A sweep is an embarrassingly parallel grid of independent testbed runs.
:class:`SweepJob` describes one mechanism's (rates × repetitions) slice;
:meth:`SweepJob.tasks` shards it into :class:`SweepTask` coordinates
whose seeds are pure functions of ``(base_seed, rate, rep)`` — never of
scheduling order — so any execution order reproduces the grid-order
sweep bit-for-bit (see :func:`repro.experiments.runner.derive_seed`).

Workers receive tasks, not jobs: a task is a tiny frozen dataclass that
pickles cheaply, while the job (whose workload factory is typically a
closure and not picklable) is shared with worker processes through
:data:`_JOB_REGISTRY` plus ``fork`` inheritance — the engine registers
jobs *before* spawning the pool, so children see the same registry, and
releases them when its call returns.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core import BufferConfig
from ..experiments.calibration import TestbedCalibration
from ..experiments.runner import (WorkloadFactory, derive_seed, run_once)
from ..faults import FaultSpec
from ..metrics import RunMetrics
from ..obs import ObsConfig, RunObservation, RunObserver
from ..scenarios import ScenarioSpec
from ..simkit import RandomStreams, mbps


@dataclass(frozen=True)
class SweepTask:
    """One repetition's coordinates: enough to rerun it anywhere."""

    job_id: int
    rate_index: int
    rate_mbps: float
    rep: int
    seed: int

    @property
    def key(self) -> Tuple[int, int, int]:
        """Result-map key: position in the sweep grid, never timing."""
        return (self.job_id, self.rate_index, self.rep)


@dataclass
class SweepJob:
    """One mechanism's slice of a parameter study (rates × repetitions)."""

    config: BufferConfig
    factory: WorkloadFactory
    rates_mbps: Tuple[float, ...]
    repetitions: int
    calibration: Optional[TestbedCalibration] = None
    base_seed: int = 0
    #: When set, workers observe each run (spans + metric snapshots) and
    #: ship the picklable :class:`repro.obs.RunObservation` back with the
    #: run metrics.  Frozen/picklable, so it crosses the fork boundary.
    obs_config: Optional[ObsConfig] = None
    #: Topology every repetition runs on (None = single-switch default).
    #: Also carries the execution engine (``scenario.engine``), so the
    #: parallel workers and the result cache distinguish hybrid- from
    #: packet-engine runs for free.
    #: Frozen/hashable; participates in the result-cache content hash.
    scenario: Optional[ScenarioSpec] = None
    #: Control-plane fault injection every repetition runs under
    #: (None = no faults).  Frozen/hashable; participates in the
    #: result-cache content hash (cache schema v3).
    faults: Optional[FaultSpec] = None
    #: Override for the sweep's result label.  Parameter studies that
    #: reuse one mechanism across scenarios (e.g. buffer-256 on line:1
    #: vs line:4) need distinct labels for the engine's uniqueness check.
    label_override: Optional[str] = None
    #: Assigned by :func:`register_jobs`; unique within the process.
    job_id: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.rates_mbps = tuple(self.rates_mbps)
        if self.repetitions < 1:
            raise ValueError(
                f"repetitions must be >= 1, got {self.repetitions}")

    @property
    def label(self) -> str:
        """The label this job's rows carry (mechanism, unless overridden)."""
        return (self.label_override if self.label_override is not None
                else self.config.label)

    def tasks(self) -> List[SweepTask]:
        """Shard the job into its full task grid, in canonical order."""
        if self.job_id is None:
            raise ValueError("job must be registered before sharding "
                             "(call register_jobs)")
        return [
            SweepTask(job_id=self.job_id, rate_index=rate_index,
                      rate_mbps=rate, rep=rep,
                      seed=derive_seed(self.base_seed, rate, rep))
            for rate_index, rate in enumerate(self.rates_mbps)
            for rep in range(self.repetitions)
        ]


#: Jobs visible to worker processes (inherited through ``fork``).
_JOB_REGISTRY: Dict[int, SweepJob] = {}
_JOB_IDS = itertools.count(1)


def register_jobs(jobs: List[SweepJob]) -> List[SweepJob]:
    """Assign ids and expose ``jobs`` to (future) worker processes.

    Must run in the parent *before* the pool is created: ``fork`` workers
    inherit the registry as-is, which is what lets non-picklable workload
    factories (closures) cross the process boundary.
    """
    for job in jobs:
        if job.job_id is None:
            job.job_id = next(_JOB_IDS)
        _JOB_REGISTRY[job.job_id] = job
    return jobs


def release_jobs(jobs: List[SweepJob]) -> None:
    """Drop ``jobs`` from the registry (their factories, configs and
    calibrations with them).  Fork workers hold their own copy from the
    moment their pool started, so nothing reads these entries after the
    call that registered them returns."""
    for job in jobs:
        _JOB_REGISTRY.pop(job.job_id, None)


def execute_task_observed(
        task: SweepTask,
        heartbeat_sink: Optional[Callable[[dict], None]] = None
) -> Tuple[RunMetrics, Optional[RunObservation]]:
    """Run one repetition from its coordinates (any process, any order);
    also observe it when its job asks for that.

    The observation rides back to the parent as picklable data; the run
    metrics are identical whether or not observation is on.
    ``heartbeat_sink`` receives each monitor heartbeat as it fires (the
    engine's in-process executor passes its collector's sink; a fork
    worker has no way to stream across the process boundary).
    """
    job = _JOB_REGISTRY[task.job_id]
    rng = RandomStreams(task.seed)
    workload = job.factory(mbps(task.rate_mbps), rng)
    observer = (RunObserver(job.obs_config, label=job.label,
                            rate_mbps=task.rate_mbps, rep=task.rep,
                            seed=task.seed, heartbeat_sink=heartbeat_sink)
                if job.obs_config is not None else None)
    metrics = run_once(job.config, workload, calibration=job.calibration,
                       seed=task.seed, obs=observer,
                       scenario=job.scenario, faults=job.faults)
    return metrics, (observer.observation if observer is not None else None)


def execute_task_with_pid(
        task: SweepTask) -> Tuple[int, RunMetrics, Optional[RunObservation]]:
    """Pool entry point: :func:`execute_task_observed` + the worker pid."""
    metrics, observation = execute_task_observed(task)
    return os.getpid(), metrics, observation


def factory_fingerprint(factory: object) -> str:
    """Stable identity of a workload factory, for cache keying.

    Captures the function's module-qualified name plus the values bound
    in its closure cells and defaults, so ``workload_a_factory(n_flows=300)``
    and ``workload_a_factory(n_flows=1000)`` key differently while two
    identically-parameterized factories key the same.
    """
    if isinstance(factory, functools.partial):
        keywords = sorted(factory.keywords.items())
        return (f"partial({factory_fingerprint(factory.func)}, "
                f"args={factory.args!r}, kwargs={keywords!r})")
    module = getattr(factory, "__module__", "?")
    qualname = getattr(factory, "__qualname__", repr(factory))
    parts = [f"{module}.{qualname}"]
    code = getattr(factory, "__code__", None)
    closure = getattr(factory, "__closure__", None)
    if code is not None and closure:
        cells = []
        for name, cell in zip(code.co_freevars, closure):
            try:
                cells.append(f"{name}={cell.cell_contents!r}")
            except ValueError:                      # pragma: no cover
                cells.append(f"{name}=<unset>")
        parts.append("[" + ", ".join(cells) + "]")
    defaults = getattr(factory, "__defaults__", None)
    if defaults:
        parts.append(f"defaults={defaults!r}")
    return "".join(parts)
