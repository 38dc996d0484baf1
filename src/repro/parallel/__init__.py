"""Sweep execution: sharding, worker pool, cache, telemetry.

The paper's method is a grid of independent testbed runs — (mechanisms ×
rates × 20 repetitions).  Every sweep walks it here: this subsystem
shards the grid into per-repetition tasks, executes them in-process or
on a ``multiprocessing`` (fork) worker pool, and reassembles the results
in canonical grid order, so the output is **bit-identical regardless of
worker count or completion order**.  The load-bearing invariant: every
repetition's seed is a pure function of ``(base_seed, rate, rep)``
(:func:`derive_seed`), never of scheduling.

Pieces:

* :mod:`~repro.parallel.tasks` — :class:`SweepJob` / :class:`SweepTask`
  sharding and worker-side execution.
* :mod:`~repro.parallel.engine` — the in-process executor and the fork
  pool, bounded crash retry, and the :class:`EngineReport`
  partial-failure report.
* :mod:`~repro.parallel.cache` — on-disk :class:`ResultCache` keyed by a
  content hash of every run input.
* :mod:`~repro.parallel.progress` — :class:`ProgressTracker` (done/total,
  ETA, per-worker throughput).
"""

from ..experiments.runner import derive_seed
from .cache import ResultCache, default_cache_dir, task_key
from .engine import (EngineReport, SweepExecutionError, TaskFailure,
                     resolve_workers, run_sweep_jobs)
from .progress import ProgressTracker
from .tasks import (SweepJob, SweepTask, execute_task_observed,
                    factory_fingerprint, register_jobs)

__all__ = [
    "derive_seed",
    "ResultCache", "default_cache_dir", "task_key",
    "EngineReport", "SweepExecutionError", "TaskFailure",
    "resolve_workers", "run_sweep_jobs",
    "ProgressTracker",
    "SweepJob", "SweepTask", "execute_task_observed",
    "factory_fingerprint", "register_jobs",
]
