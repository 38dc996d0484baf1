"""Tests for sweep sharding: tasks, deterministic seeding, fingerprints."""

from __future__ import annotations

import functools

import pytest

from repro.core import buffer_256
from repro.experiments import derive_seed, run_once, workload_a_factory
from repro.parallel import SweepJob, execute_task_observed, register_jobs
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import single_packet_flows


# ---------------------------------------------------------------------------
# derive_seed: the determinism invariant
# ---------------------------------------------------------------------------

def test_derive_seed_is_pure():
    assert derive_seed(3, 50, 7) == derive_seed(3, 50, 7)


def test_derive_seed_matches_legacy_formula():
    # The formula the serial runner always used; changing it silently
    # would invalidate every recorded figure and the result cache.
    assert derive_seed(2, 35, 4) == 2 * 100_003 + 35 * 1_009 + 4


def test_derive_seed_unique_across_small_grid():
    seeds = {derive_seed(1, rate, rep)
             for rate in range(5, 101, 5) for rep in range(20)}
    assert len(seeds) == 20 * 20


# ---------------------------------------------------------------------------
# SweepJob sharding
# ---------------------------------------------------------------------------

def test_job_tasks_enumerate_grid_in_canonical_order():
    job = SweepJob(config=buffer_256(), factory=workload_a_factory(10),
                   rates_mbps=(20, 80), repetitions=3, base_seed=5)
    register_jobs([job])
    tasks = job.tasks()
    assert [(t.rate_index, t.rate_mbps, t.rep) for t in tasks] == [
        (0, 20, 0), (0, 20, 1), (0, 20, 2),
        (1, 80, 0), (1, 80, 1), (1, 80, 2)]
    assert all(t.seed == derive_seed(5, t.rate_mbps, t.rep) for t in tasks)
    assert all(t.job_id == job.job_id for t in tasks)


def test_job_rejects_zero_repetitions():
    with pytest.raises(ValueError):
        SweepJob(config=buffer_256(), factory=workload_a_factory(10),
                 rates_mbps=(20,), repetitions=0)


def test_unregistered_job_cannot_shard():
    job = SweepJob(config=buffer_256(), factory=workload_a_factory(10),
                   rates_mbps=(20,), repetitions=1)
    with pytest.raises(ValueError):
        job.tasks()


def test_execute_task_matches_direct_run_once():
    job = SweepJob(config=buffer_256(), factory=workload_a_factory(15),
                   rates_mbps=(20,), repetitions=1, base_seed=2)
    register_jobs([job])
    task = job.tasks()[0]
    via_task, observation = execute_task_observed(task)
    assert observation is None              # the job asked for none
    rng = RandomStreams(task.seed)
    direct = run_once(
        buffer_256(),
        single_packet_flows(mbps(20), n_flows=15, frame_len=1000, rng=rng),
        seed=task.seed)
    assert via_task.control_load_up_mbps == direct.control_load_up_mbps
    assert via_task.setup_delays == direct.setup_delays


# ---------------------------------------------------------------------------
# factory fingerprints (cache identity)
# ---------------------------------------------------------------------------

def test_fingerprint_stable_for_equal_parameters():
    from repro.parallel import factory_fingerprint
    a = factory_fingerprint(workload_a_factory(n_flows=300))
    b = factory_fingerprint(workload_a_factory(n_flows=300))
    assert a == b


def test_fingerprint_differs_with_closure_values():
    from repro.parallel import factory_fingerprint
    assert (factory_fingerprint(workload_a_factory(n_flows=300))
            != factory_fingerprint(workload_a_factory(n_flows=1000)))


def test_fingerprint_handles_partial():
    from repro.parallel import factory_fingerprint

    def base(rate_bps, rng, n_flows):
        return single_packet_flows(rate_bps, n_flows=n_flows, rng=rng)

    ten = factory_fingerprint(functools.partial(base, n_flows=10))
    twenty = factory_fingerprint(functools.partial(base, n_flows=20))
    assert ten != twenty
    assert ten == factory_fingerprint(functools.partial(base, n_flows=10))


def test_fingerprint_differs_between_factories():
    from repro.experiments import workload_b_factory
    from repro.parallel import factory_fingerprint
    assert (factory_fingerprint(workload_a_factory(50))
            != factory_fingerprint(workload_b_factory(50)))
