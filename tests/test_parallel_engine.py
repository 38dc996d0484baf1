"""Engine tests: parallel == in-process, crash retry, order independence."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import buffer_16, buffer_256
from repro.experiments import (aggregate, derive_seed, run_once, sweep,
                               workload_a_factory)
from repro.parallel import (SweepExecutionError, SweepJob,
                            execute_task_observed, register_jobs,
                            resolve_workers, run_sweep_jobs)
from repro.parallel import engine, tasks
from repro.parallel.engine import _assemble
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import single_packet_flows

_RATES = (20, 80)
_REPS = 2
_FLOWS = 20


def _rows_equal(a, b):
    assert len(a.rows) == len(b.rows)
    for row_a, row_b in zip(a.rows, b.rows):
        assert dataclasses.asdict(row_a) == dataclasses.asdict(row_b)


# ---------------------------------------------------------------------------
# bit-identical equivalence
# ---------------------------------------------------------------------------

def test_workers_1_equals_workers_4():
    """The acceptance bar: fig2a-style rows identical at 1 and 4 workers."""
    factory = workload_a_factory(n_flows=_FLOWS)
    one = sweep(buffer_256(), factory, _RATES, _REPS, base_seed=1,
                workers=1)
    four = sweep(buffer_256(), factory, _RATES, _REPS, base_seed=1,
                 workers=4)
    _rows_equal(one, four)


def test_parallel_equals_legacy_serial_sweep():
    """The serial sweep, written out as the reference: ``run_once`` at
    every grid point in order, each rate's repetitions aggregated."""
    factory = workload_a_factory(n_flows=_FLOWS)
    serial = [aggregate(rate, "buffer-256", [
        run_once(buffer_256(),
                 factory(mbps(rate), RandomStreams(derive_seed(1, rate, rep))),
                 seed=derive_seed(1, rate, rep))
        for rep in range(_REPS)]) for rate in _RATES]
    parallel = sweep(buffer_256(), factory, _RATES, _REPS, base_seed=1,
                     workers=4)
    assert [dataclasses.asdict(row) for row in serial] \
        == [dataclasses.asdict(row) for row in parallel.rows]


def test_multi_job_study_matches_per_config_serial():
    """All mechanisms shard into one pool; each sweep still matches."""
    factory = workload_a_factory(n_flows=_FLOWS)
    jobs = [SweepJob(config=config, factory=factory, rates_mbps=_RATES,
                     repetitions=_REPS, base_seed=3)
            for config in (buffer_16(), buffer_256())]
    sweeps, report = run_sweep_jobs(jobs, workers=3)
    assert report.ok
    assert report.total_tasks == 2 * len(_RATES) * _REPS
    for config in (buffer_16(), buffer_256()):
        serial = sweep(config, factory, _RATES, _REPS, base_seed=3)
        _rows_equal(serial, sweeps[config.label])


def test_completion_order_does_not_change_aggregates():
    """Regression: reordering repetitions must not change any row field.

    Executes the task grid in reverse (an adversarial completion order)
    and reassembles; the engine's canonical-order assembly must produce
    exactly the serial sweep.
    """
    factory = workload_a_factory(n_flows=_FLOWS)
    job = SweepJob(config=buffer_256(), factory=factory, rates_mbps=_RATES,
                   repetitions=3, base_seed=2)
    register_jobs([job])
    results = {}
    for task in reversed(job.tasks()):
        results[task.key] = execute_task_observed(task)[0]
    reassembled = _assemble([job], results)[job.label]
    serial = sweep(buffer_256(), factory, _RATES, 3, base_seed=2)
    _rows_equal(serial, reassembled)


# ---------------------------------------------------------------------------
# crash injection, bounded retry, partial-failure report
# ---------------------------------------------------------------------------

def _crash_at_50(rate_bps, rng):
    if abs(rate_bps - mbps(50)) < 1.0:
        raise RuntimeError("injected crash")
    return single_packet_flows(rate_bps, n_flows=10, rng=rng)


@pytest.mark.parametrize("workers", [1, 2])
def test_crashing_task_is_retried_then_reported(workers):
    job = SweepJob(config=buffer_256(), factory=_crash_at_50,
                   rates_mbps=(20, 50), repetitions=2, base_seed=1)
    sweeps, report = run_sweep_jobs([job], workers=workers,
                                    max_task_retries=1)
    assert not report.ok
    # Both rate-50 repetitions failed, each after 1 + 1 retry attempts.
    assert [(f.rate_mbps, f.rep) for f in report.failures] == [(50, 0),
                                                               (50, 1)]
    assert all(f.attempts == 2 for f in report.failures)
    assert all("injected crash" in f.error for f in report.failures)
    # The healthy rate survives; the dead rate has no row.
    assert sweeps[job.label].rates == [20]
    text = report.format()
    assert "FAILED" in text and "injected crash" in text


def test_parallel_sweep_raises_on_partial_failure():
    with pytest.raises(SweepExecutionError) as excinfo:
        sweep(buffer_256(), _crash_at_50, (20, 50), 1, base_seed=1,
              workers=2)
    assert "injected crash" in str(excinfo.value)
    assert not excinfo.value.report.ok


def test_one_worker_sweep_names_the_task_that_failed_every_attempt():
    """In-process sweeps take the engine's bounded retry too, then
    raise a report naming the repetition, not the bare exception."""
    with pytest.raises(SweepExecutionError) as excinfo:
        sweep(buffer_256(), _crash_at_50, (20, 50), 2, base_seed=1)
    report = excinfo.value.report
    assert report.workers == 1
    assert [(f.rate_mbps, f.rep, f.attempts) for f in report.failures] \
        == [(50, 0, 3), (50, 1, 3)]
    text = str(excinfo.value)
    assert "rate=50 rep=0" in text and "rate=50 rep=1" in text
    assert "RuntimeError: injected crash" in text


def test_partial_failure_rows_match_serial_for_surviving_rates():
    job = SweepJob(config=buffer_256(), factory=_crash_at_50,
                   rates_mbps=(20, 50), repetitions=2, base_seed=1)
    sweeps, report = run_sweep_jobs([job], workers=2, max_task_retries=0)
    assert not report.ok
    serial = sweep(buffer_256(),
                   lambda rate_bps, rng: single_packet_flows(
                       rate_bps, n_flows=10, rng=rng),
                   (20,), 2, base_seed=1)
    _rows_equal(serial, sweeps[job.label])


# ---------------------------------------------------------------------------
# in-process default and the job registry
# ---------------------------------------------------------------------------

def test_runs_without_workers_start_no_pool(monkeypatch):
    from repro.experiments import (run_benefits_experiment,
                                   run_mechanism_experiment)

    def no_pool(*args, **kwargs):
        raise AssertionError("a run without workers started a pool")

    monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
    result = sweep(buffer_256(), workload_a_factory(n_flows=5), (20, 80), 2)
    assert result.rates == [20, 80]
    benefits = run_benefits_experiment(rates_mbps=(20,), repetitions=2,
                                       n_flows=5)
    mechanism = run_mechanism_experiment(rates_mbps=(20,), repetitions=2,
                                         n_flows=5, packets_per_flow=2)
    assert benefits.report.workers == mechanism.report.workers == 1
    assert benefits.report.ok and mechanism.report.ok


@pytest.mark.parametrize("workers", [1, 2])
def test_sweeps_leave_the_job_registry_as_they_found_it(workers):
    """Jobs are registered for one engine call only: a healthy study, one
    with a failing task and one whose telemetry raises out of the engine
    all leave the registry as it was."""
    def explode(line):
        raise RuntimeError("telemetry sink failed")

    before = dict(tasks._JOB_REGISTRY)
    for factory in (workload_a_factory(n_flows=5), _crash_at_50):
        job = SweepJob(config=buffer_256(), factory=factory,
                       rates_mbps=(20, 50), repetitions=2)
        run_sweep_jobs([job], workers=workers, max_task_retries=0)
        assert tasks._JOB_REGISTRY == before
    job = SweepJob(config=buffer_256(), factory=workload_a_factory(5),
                   rates_mbps=(20,), repetitions=2)
    with pytest.raises(RuntimeError, match="telemetry"):
        run_sweep_jobs([job], workers=workers, progress=explode)
    assert tasks._JOB_REGISTRY == before
    sweep(buffer_256(), workload_a_factory(n_flows=5), (20, 80), 2,
          workers=workers)
    assert tasks._JOB_REGISTRY == before


def test_observed_call_leaves_its_jobs_unobserved(monkeypatch):
    """A job run once with a collector and then without one builds no
    observer in the second call: each job leaves the engine with the
    ``obs_config`` it came in with."""
    from repro.obs import ObsCollector
    job = SweepJob(config=buffer_256(), factory=workload_a_factory(5),
                   rates_mbps=(20,), repetitions=1)
    run_sweep_jobs([job], workers=1, obs=ObsCollector())
    built = []
    original = tasks.RunObserver

    def counting(*args, **kwargs):
        built.append(kwargs.get("label"))
        return original(*args, **kwargs)

    monkeypatch.setattr(tasks, "RunObserver", counting)
    run_sweep_jobs([job], workers=1)
    assert built == []
    assert job.obs_config is None


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_resolve_workers():
    import os
    assert resolve_workers(None) == (os.cpu_count() or 1)
    assert resolve_workers(3) == 3
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_duplicate_labels_rejected():
    factory = workload_a_factory(n_flows=5)
    jobs = [SweepJob(config=buffer_256(), factory=factory,
                     rates_mbps=(20,), repetitions=1) for _ in range(2)]
    with pytest.raises(ValueError):
        run_sweep_jobs(jobs, workers=1)


def test_report_counts_executed_and_cached():
    factory = workload_a_factory(n_flows=5)
    job = SweepJob(config=buffer_256(), factory=factory, rates_mbps=(20,),
                   repetitions=2, base_seed=0)
    _, report = run_sweep_jobs([job], workers=1)
    assert report.total_tasks == 2
    assert report.executed == 2
    assert report.cached == 0
    assert report.ok
    assert "ok" in report.format()
