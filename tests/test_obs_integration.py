"""Observation plumbing end to end: in-process, parallel, cache, CLI."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core import buffer_16, buffer_256, flow_buffer_256
from repro.experiments import (run_once, sweep, workload_a_factory,
                               workload_b_factory)
from repro.experiments.cli import main as cli_main
from repro.obs import (ObsCollector, ObsConfig, RunObserver,
                       parse_prometheus, spans_from_jsonl,
                       validate_chrome_trace, validate_nesting)
from repro.parallel import ResultCache, SweepJob, run_sweep_jobs
from repro.simkit import RandomStreams, mbps

_RATES = (20.0,)
_REPS = 2
_FLOWS = 20


def _rows_equal(a, b):
    assert len(a.rows) == len(b.rows)
    for row_a, row_b in zip(a.rows, b.rows):
        assert dataclasses.asdict(row_a) == dataclasses.asdict(row_b)


def _observed_sweep(**kwargs):
    obs = ObsCollector(ObsConfig())
    result = sweep(buffer_16(), workload_a_factory(n_flows=_FLOWS),
                   _RATES, _REPS, base_seed=1, obs=obs, **kwargs)
    return result, obs


# ---------------------------------------------------------------------------
# Serial collection
# ---------------------------------------------------------------------------

def test_serial_sweep_collects_one_observation_per_repetition():
    result, obs = _observed_sweep()
    assert len(obs.observations) == len(_RATES) * _REPS
    assert obs.total_spans > 0 and obs.dropped_spans == 0
    for observation in obs.observations:
        assert observation.label == "buffer-16"
        assert validate_nesting(observation.spans) == []
        assert observation.flows_traced > 0
    assert "2 run(s)" in obs.summary()


def test_merged_metrics_are_scoped_by_run_label():
    _, obs = _observed_sweep()
    merged = obs.merged_metrics()
    assert not merged.empty
    for key in (list(merged.counters) + list(merged.gauges)
                + list(merged.histograms)):
        _, labels = key
        assert ("run", "buffer-16") in labels
    # counters from both repetitions sum: one packet_in per flow each
    packet_ins = [value for (name, _), value in merged.counters.items()
                  if name == "switch_packet_ins_sent_total"]
    assert packet_ins == [_FLOWS * _REPS]


def test_observing_does_not_perturb_results():
    plain = sweep(buffer_16(), workload_a_factory(n_flows=_FLOWS),
                  _RATES, _REPS, base_seed=1)
    observed, _ = _observed_sweep()
    _rows_equal(plain, observed)


def test_flow_granularity_store_counters_reach_the_registry():
    """Flow runs export the ``pktbuf_*`` family as packet runs do: the
    switch-labelled registry samples equal the store's own counts."""
    observer = RunObserver(ObsConfig(trace=False))
    stores = []
    workload = workload_b_factory(n_flows=20)(mbps(40), RandomStreams(3))
    run_once(flow_buffer_256(), workload, seed=3, obs=observer,
             on_testbed=lambda testbed: stores.append(
                 testbed.switches[0].mechanism.buffer))
    buffer, = stores
    snapshot = observer.observation.metrics
    key = (("switch", "ovs"),)
    assert buffer.buffered.value > 20       # 20 flows' units, appended to
    assert snapshot.counters[("pktbuf_buffered_total", key)] \
        == buffer.buffered.value
    assert snapshot.counters[("pktbuf_released_total", key)] \
        == buffer.released.value > 0
    assert snapshot.gauges[("pktbuf_peak_units", key)] \
        == buffer.peak_units.value > 0


def test_trace_buffer_ids_do_not_depend_on_earlier_runs():
    """Each switch's store numbers its buffer ids from 1, so a run's
    ``buffer_id`` span attributes are the same whatever ran before it in
    the process (a sweep worker makes a different number of runs before
    each one, depending on the worker count)."""
    def buffer_ids():
        observer = RunObserver(ObsConfig())
        workload = workload_a_factory(n_flows=_FLOWS)(mbps(20),
                                                      RandomStreams(3))
        run_once(buffer_16(), workload, seed=3, obs=observer)
        return [span.attrs["buffer_id"]
                for span in observer.observation.spans
                if "buffer_id" in span.attrs]

    first = buffer_ids()
    assert first[0] == 1
    assert buffer_ids() == first


# ---------------------------------------------------------------------------
# Parallel collection
# ---------------------------------------------------------------------------

def test_parallel_observations_match_serial():
    serial_result, serial_obs = _observed_sweep()
    parallel_obs = ObsCollector(ObsConfig())
    parallel_result = sweep(
        buffer_16(), workload_a_factory(n_flows=_FLOWS), _RATES, _REPS,
        base_seed=1, workers=2, obs=parallel_obs)
    _rows_equal(serial_result, parallel_result)
    assert len(parallel_obs.observations) == len(serial_obs.observations)
    assert parallel_obs.total_spans == serial_obs.total_spans
    assert parallel_obs.merged_metrics() == serial_obs.merged_metrics()
    assert [g[0] for g in parallel_obs.trace_groups()] \
        == [g[0] for g in serial_obs.trace_groups()]


def test_trace_off_still_merges_metrics_and_stays_bit_identical():
    plain = sweep(buffer_16(), workload_a_factory(n_flows=_FLOWS),
                  _RATES, _REPS, base_seed=1)
    obs = ObsCollector(ObsConfig(trace=False))
    result = sweep(
        buffer_16(), workload_a_factory(n_flows=_FLOWS), _RATES, _REPS,
        base_seed=1, workers=2, obs=obs)
    _rows_equal(plain, result)
    assert obs.total_spans == 0
    assert not obs.merged_metrics().empty
    assert obs.trace_groups() == []


def test_multi_job_study_scopes_metrics_per_mechanism():
    factory = workload_a_factory(n_flows=_FLOWS)
    obs = ObsCollector(ObsConfig())
    jobs = [SweepJob(config=config, factory=factory, rates_mbps=_RATES,
                     repetitions=1, base_seed=3)
            for config in (buffer_16(), buffer_256())]
    _, report = run_sweep_jobs(jobs, workers=2, obs=obs)
    assert report.ok
    merged = obs.merged_metrics()
    runs = {dict(labels).get("run")
            for (_, labels) in merged.counters}
    assert runs == {"buffer-16", "buffer-256"}


def test_observed_sweep_skips_cache_reads_but_still_populates(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    factory = workload_a_factory(n_flows=_FLOWS)

    def run(obs):
        job = SweepJob(config=buffer_16(), factory=factory,
                       rates_mbps=_RATES, repetitions=_REPS, base_seed=1)
        return run_sweep_jobs([job], workers=1, cache=cache, obs=obs)

    _, first = run(ObsCollector(ObsConfig()))
    assert first.cached == 0                      # nothing cached yet
    _, second = run(ObsCollector(ObsConfig()))
    assert second.cached == 0                     # hits skipped while observing
    _, third = run(None)
    assert third.cached == len(_RATES) * _REPS    # unobserved run gets hits


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def test_write_trace_chrome_and_jsonl(tmp_path):
    _, obs = _observed_sweep()
    chrome_path = obs.write_trace(tmp_path / "trace.json")
    payload = json.loads(chrome_path.read_text())
    assert validate_chrome_trace(payload) == []
    assert len(payload["traceEvents"]) > 0

    jsonl_path = obs.write_trace(tmp_path / "trace.jsonl")
    with open(jsonl_path) as fh:
        records = spans_from_jsonl(fh)
    assert len(records) == obs.total_spans


def test_write_metrics_prometheus(tmp_path):
    _, obs = _observed_sweep()
    path = obs.write_metrics(tmp_path / "metrics.prom")
    samples = parse_prometheus(path.read_text())
    assert "switch_packet_ins_sent_total" in samples
    assert "flow_setup_delay_seconds_bucket" in samples


# ---------------------------------------------------------------------------
# CLI flags
# ---------------------------------------------------------------------------

def test_cli_writes_parseable_trace_and_metrics(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.prom"
    code = cli_main(["fig5", "--rates", "20", "--reps", "1",
                     "--flows", str(_FLOWS), "--workers", "1", "--no-cache",
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics)])
    assert code == 0
    captured = capsys.readouterr()
    assert "obs:" in captured.err
    payload = json.loads(trace.read_text())
    assert validate_chrome_trace(payload) == []
    samples = parse_prometheus(metrics.read_text())
    assert "flow_setup_delay_seconds_count" in samples


def test_cli_rejects_bad_trace_sample(tmp_path, capsys):
    code = cli_main(["fig5", "--trace-out", str(tmp_path / "t.json"),
                     "--trace-sample", "0"])
    assert code == 2
    assert "trace-sample" in capsys.readouterr().err
