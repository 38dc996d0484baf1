"""The sweep-execution engine: the one path from a sweep grid to runs.

Shards sweep jobs into per-(mechanism, rate, repetition) tasks, resolves
cache hits, executes the rest on a ``fork``-based worker pool (in this
process when ``workers <= 1`` or one task is pending), and reassembles
results **in canonical grid order** before aggregation — which is what
makes the output bit-identical regardless of worker count or completion
order.

Fault model: a task that raises (or whose worker process dies, surfacing
as ``BrokenProcessPool``) is retried up to ``max_task_retries`` times in
a fresh pool round; a task that exhausts its budget becomes a
:class:`TaskFailure` in the :class:`EngineReport` and its repetition is
excluded from aggregation.  The engine itself never raises for task
failures — callers decide via :attr:`EngineReport.ok` (and
:func:`repro.experiments.sweep` raises :class:`SweepExecutionError`).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Tuple, Union)

from ..experiments.runner import SweepResult, aggregate
from ..metrics import RunMetrics
from ..obs import ObsCollector, RunObservation
from .cache import ResultCache, task_key
from .progress import ProgressTracker, stderr_emit
from .tasks import (SweepJob, SweepTask, execute_task_observed,
                    execute_task_with_pid, register_jobs, release_jobs)

#: Result map: sweep-grid coordinates -> run snapshot.
ResultMap = Dict[Tuple[int, int, int], RunMetrics]

ProgressLike = Union[None, bool, ProgressTracker, Callable[[str], None]]


@dataclass(frozen=True)
class TaskFailure:
    """One repetition that failed every attempt."""

    label: str
    rate_mbps: float
    rep: int
    seed: int
    attempts: int
    error: str


@dataclass
class EngineReport:
    """What one engine invocation did: totals, cache, failures, timing."""

    total_tasks: int
    executed: int
    cached: int
    workers: int
    wall_seconds: float
    failures: List[TaskFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every task produced a result."""
        return not self.failures

    def format(self) -> str:
        """Human-readable (partial-failure) report."""
        status = "ok" if self.ok else f"{len(self.failures)} FAILED"
        lines = [
            f"parallel engine: {self.total_tasks} tasks "
            f"({self.executed} executed, {self.cached} cached) on "
            f"{self.workers} worker(s) in {self.wall_seconds:.1f}s — "
            f"{status}"
        ]
        for failure in self.failures:
            lines.append(
                f"  FAILED {failure.label} rate={failure.rate_mbps:g} "
                f"rep={failure.rep} seed={failure.seed} after "
                f"{failure.attempts} attempt(s): {failure.error}")
        if not self.ok:
            lines.append(
                "  affected repetitions are excluded from aggregation; "
                "rates with zero surviving repetitions are dropped")
        return "\n".join(lines)


class SweepExecutionError(RuntimeError):
    """Raised when a sweep finished with failed repetitions."""

    def __init__(self, report: EngineReport):
        super().__init__(report.format())
        self.report = report


def resolve_workers(workers: Optional[int]) -> int:
    """Effective worker count: ``None`` means every available core."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _make_tracker(progress: ProgressLike, total: int,
                  workers: int) -> ProgressTracker:
    """Normalize the ``progress`` argument into a tracker."""
    if isinstance(progress, ProgressTracker):
        return progress
    if callable(progress):
        return ProgressTracker(total, workers=workers, emit=progress)
    emit = stderr_emit if progress else None
    return ProgressTracker(total, workers=workers, emit=emit)


def _fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def run_sweep_jobs(jobs: Sequence[SweepJob], workers: Optional[int] = None,
                   cache: Optional[ResultCache] = None,
                   progress: ProgressLike = None,
                   max_task_retries: int = 2,
                   obs: Optional[ObsCollector] = None
                   ) -> Tuple[Dict[str, SweepResult], EngineReport]:
    """Execute a parameter study (one or more sweeps).

    Returns ``(sweeps, report)``: sweeps keyed by mechanism label, each
    bit-identical at any worker count, plus the engine's
    telemetry/failure report.  Labels must be unique across ``jobs``,
    which stay registered for worker processes only until this call
    returns and leave it with the ``obs_config`` they came in with.

    ``obs`` turns on per-task observation: workers ship spans and metric
    snapshots back alongside the run metrics and the collector merges
    them on reassembly; in-process runs also stream each heartbeat to
    the collector's ``heartbeat_sink`` as it fires.  Cache *reads* are
    skipped while observing (a hit carries no observation payload) but
    fresh results are still written, so a later unobserved sweep gets
    its hits back.
    """
    jobs = list(jobs)
    labels = [job.label for job in jobs]
    if len(set(labels)) != len(labels):
        raise ValueError(f"job labels must be unique, got {labels}")
    configs = [job.obs_config for job in jobs]
    if obs is not None:
        for job in jobs:
            job.obs_config = obs.config
    register_jobs(jobs)
    try:
        return _execute_study(jobs, workers, cache, progress,
                              max_task_retries, obs)
    finally:
        release_jobs(jobs)
        for job, config in zip(jobs, configs):
            job.obs_config = config


def _execute_study(jobs: List[SweepJob], workers: Optional[int],
                   cache: Optional[ResultCache], progress: ProgressLike,
                   max_task_retries: int, obs: Optional[ObsCollector]
                   ) -> Tuple[Dict[str, SweepResult], EngineReport]:
    """The engine proper; runs while ``jobs`` are registered."""
    grid = [(job, task) for job in jobs for task in job.tasks()]
    worker_count = resolve_workers(workers)
    tracker = _make_tracker(progress, total=len(grid), workers=worker_count)
    started = time.monotonic()
    results: ResultMap = {}
    failures: List[TaskFailure] = []
    jobs_by_id = {job.job_id: job for job in jobs}

    # Cache pass: resolve what a previous session already computed.
    # Observed sweeps recompute everything (a hit has no observation).
    pending: List[SweepTask] = []
    for job, task in grid:
        hit = (cache.get(task_key(job, task))
               if cache is not None and obs is None else None)
        if hit is not None:
            results[task.key] = hit
            tracker.task_done(worker="cache", cached=True)
        else:
            pending.append(task)

    def on_success(task: SweepTask, metrics: RunMetrics, worker: str,
                   observation: Optional[RunObservation] = None) -> None:
        results[task.key] = metrics
        if cache is not None:
            cache.put(task_key(jobs_by_id[task.job_id], task), metrics)
        if obs is not None:
            obs.add(observation)
        tracker.task_done(worker=worker,
                          violations=(len(observation.violations)
                                      if observation is not None else 0))

    def on_failure(task: SweepTask, attempts: int, error: Exception,
                   worker: str) -> None:
        job = jobs_by_id[task.job_id]
        failures.append(TaskFailure(
            label=job.label, rate_mbps=task.rate_mbps, rep=task.rep,
            seed=task.seed, attempts=attempts,
            error=f"{type(error).__name__}: {error}"))
        tracker.task_failed(worker=worker)

    if pending:
        parallel = worker_count > 1 and len(pending) > 1
        if parallel and not _fork_available():  # pragma: no cover
            warnings.warn("fork start method unavailable; running the "
                          "sweep inline", RuntimeWarning)
            parallel = False
        if parallel:
            _execute_pool(pending, worker_count, max_task_retries,
                          tracker, on_success, on_failure)
        else:
            _execute_inline(pending, max_task_retries, tracker,
                            on_success, on_failure,
                            obs.heartbeat_sink if obs is not None else None)

    sweeps = _assemble(jobs, results)
    # Report in grid order, not completion order, so output is stable.
    failures.sort(key=lambda f: (f.label, f.rate_mbps, f.rep))
    report = EngineReport(
        total_tasks=len(grid),
        executed=len(grid) - tracker.cached - len(failures),
        cached=tracker.cached,
        workers=worker_count,
        wall_seconds=time.monotonic() - started,
        failures=failures,
    )
    tracker.finish()
    return sweeps, report


def _execute_inline(tasks: Sequence[SweepTask], max_task_retries: int,
                    tracker: ProgressTracker, on_success, on_failure,
                    heartbeat_sink: Optional[Callable[[dict], None]]
                    ) -> None:
    """In-process execution path (``workers=1`` or one task).

    The one executor that can stream: each observed run hands its
    heartbeats to ``heartbeat_sink`` the instant they fire.
    """
    for task in tasks:
        attempts = 0
        while True:
            attempts += 1
            try:
                metrics, observation = execute_task_observed(
                    task, heartbeat_sink=heartbeat_sink)
            except Exception as exc:
                if attempts <= max_task_retries:
                    tracker.task_retried(worker="main")
                    continue
                on_failure(task, attempts, exc, "main")
                break
            else:
                on_success(task, metrics, "main", observation)
                break


def _execute_pool(tasks: Sequence[SweepTask], workers: int,
                  max_task_retries: int, tracker: ProgressTracker,
                  on_success, on_failure) -> None:
    """Fork-pool execution with bounded retry in fresh pool rounds.

    A worker-process death breaks the whole pool (``BrokenProcessPool``
    on every outstanding future); those tasks simply consume an attempt
    and rerun in the next round's fresh pool, so one crashing task cannot
    wedge the study.
    """
    ctx = multiprocessing.get_context("fork")
    attempts: Dict[SweepTask, int] = {}
    this_round = list(tasks)
    while this_round:
        next_round: List[SweepTask] = []
        pool_size = min(workers, len(this_round))
        with ProcessPoolExecutor(max_workers=pool_size,
                                 mp_context=ctx) as pool:
            futures = {pool.submit(execute_task_with_pid, task): task
                       for task in this_round}
            for future in as_completed(futures):
                task = futures[future]
                attempts[task] = attempts.get(task, 0) + 1
                try:
                    pid, metrics, observation = future.result()
                except Exception as exc:
                    if attempts[task] <= max_task_retries:
                        tracker.task_retried(worker="pool")
                        next_round.append(task)
                    else:
                        on_failure(task, attempts[task], exc, "pool")
                else:
                    on_success(task, metrics, f"pid-{pid}", observation)
        this_round = next_round


def _assemble(jobs: Sequence[SweepJob],
              results: ResultMap) -> Dict[str, SweepResult]:
    """Fold a result map into per-label sweeps, in canonical grid order.

    Repetitions are always aggregated in ``rep`` order (never completion
    order), which preserves float-summation order and hence bit-identical
    aggregates.  Repetitions missing from ``results`` (failed tasks) are
    skipped; a rate with no surviving repetition yields no row.
    """
    sweeps: Dict[str, SweepResult] = {}
    for job in jobs:
        result = SweepResult(label=job.label)
        for rate_index, rate in enumerate(job.rates_mbps):
            runs = [results[(job.job_id, rate_index, rep)]
                    for rep in range(job.repetitions)
                    if (job.job_id, rate_index, rep) in results]
            if runs:
                result.rows.append(aggregate(rate, job.label, runs))
        sweeps[job.label] = result
    return sweeps
