"""Result-cache tests: roundtrip, keying, invalidation, corruption."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core import BufferConfig, MECHANISM_PACKET, buffer_256
from repro.experiments import sweep, workload_a_factory
from repro.parallel import (ResultCache, SweepJob, default_cache_dir,
                            register_jobs, task_key)

_FACTORY = workload_a_factory(n_flows=12)


def _job(config=None, factory=None, base_seed=1, **kwargs):
    job = SweepJob(config=config or buffer_256(),
                   factory=factory or _FACTORY, rates_mbps=(20,),
                   repetitions=1, base_seed=base_seed, **kwargs)
    register_jobs([job])
    return job


# ---------------------------------------------------------------------------
# engine integration: hit on rerun, equal rows
# ---------------------------------------------------------------------------

def test_second_run_is_served_from_cache(tmp_path):
    cache = ResultCache(tmp_path)
    first = sweep(buffer_256(), _FACTORY, (20, 80), 2, base_seed=1,
                  workers=1, cache=cache)
    assert cache.stores == 4 and cache.hits == 0
    second = sweep(buffer_256(), _FACTORY, (20, 80), 2, base_seed=1,
                   workers=1, cache=cache)
    assert cache.hits == 4
    assert cache.stores == 4          # nothing recomputed
    for a, b in zip(first.rows, second.rows):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


def test_config_change_busts_the_key(tmp_path):
    cache = ResultCache(tmp_path)
    sweep(buffer_256(), _FACTORY, (20,), 1, base_seed=1, workers=1,
          cache=cache)
    stores_before = cache.stores
    sweep(BufferConfig(mechanism=MECHANISM_PACKET, capacity=64),
          _FACTORY, (20,), 1, base_seed=1, workers=1, cache=cache)
    assert cache.stores == stores_before + 1    # recomputed, not reused
    assert cache.hits == 0


# ---------------------------------------------------------------------------
# key sensitivity
# ---------------------------------------------------------------------------

def _key_of(job):
    return task_key(job, job.tasks()[0])


def test_key_sensitive_to_every_input():
    base = _key_of(_job())
    assert _key_of(_job()) == base                           # stable
    assert _key_of(_job(config=BufferConfig(
        mechanism=MECHANISM_PACKET, capacity=16))) != base   # config
    assert _key_of(_job(base_seed=2)) != base                # seed
    assert _key_of(_job(factory=workload_a_factory(
        n_flows=99))) != base                                # workload
    from repro.experiments import default_calibration
    assert _key_of(_job(
        calibration=default_calibration())) != base          # calibration


def test_key_ignores_job_id():
    a, b = _job(), _job()
    assert a.job_id != b.job_id
    assert _key_of(a) == _key_of(b)


def test_key_includes_repro_version(monkeypatch):
    import repro
    job = _job()
    key = _key_of(job)
    monkeypatch.setattr(repro, "__version__", "0.0.0-test")
    assert _key_of(job) != key


# ---------------------------------------------------------------------------
# storage behavior
# ---------------------------------------------------------------------------

def _corrupt_get(tmp_path, payload):
    """Plant ``payload`` as an entry and read it back: the warning."""
    cache = ResultCache(tmp_path)
    key = _key_of(_job())
    path = cache.path_for(key)
    path.parent.mkdir(parents=True)
    path.write_bytes(payload)
    with pytest.warns(RuntimeWarning) as caught:
        assert cache.get(key) is None
    (warning,) = caught
    assert str(path) in str(warning.message)
    assert (cache.misses, cache.corrupt, cache.hits) == (1, 1, 0)
    assert "1 misses (1 corrupt)" in cache.stats()
    assert not path.exists()          # dropped, will be recomputed
    return str(warning.message)


def test_corrupted_entry_degrades_to_miss(tmp_path):
    assert "UnpicklingError" in _corrupt_get(tmp_path, b"not a pickle")


def test_wrong_type_entry_degrades_to_miss(tmp_path):
    message = _corrupt_get(tmp_path, pickle.dumps({"not": "metrics"}))
    assert "payload is dict, not RunMetrics" in message


def test_missing_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("0" * 64) is None
    assert (cache.misses, cache.corrupt) == (1, 0)


def test_stats_line_mentions_root(tmp_path):
    cache = ResultCache(tmp_path)
    assert str(tmp_path) in cache.stats()


def test_default_cache_dir_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro-sdn-buffer"
