"""Regression tests for the ``BENCH_kernel.json`` record builder."""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent
                       / "benchmarks"))

import kernelrecord


def test_build_record_skips_probes_missing_from_after():
    # A partial measuring run (only one probe re-measured) must still
    # produce a record instead of KeyError-ing on the absent probes.
    record = kernelrecord.build_record({"event_loop": 0.01},
                                       testbed_window_s=1.0)
    assert set(record["benchmarks"]) == {"event_loop"}
    bench = record["benchmarks"]["event_loop"]
    assert bench["after"]["seconds"] == 0.01
    assert bench["speedup"] > 0


def test_build_record_carries_after_only_probes():
    # A probe with no committed *before* still lands in the record,
    # without a fabricated speedup.
    record = kernelrecord.build_record(
        {"event_loop": 0.01, "brand_new_probe": 0.5},
        testbed_window_s=1.0)
    bench = record["benchmarks"]["brand_new_probe"]
    assert bench["after"]["seconds"] == 0.5
    assert "before" not in bench
    assert "speedup" not in bench


def test_build_record_stamps_the_measuring_machine():
    record = kernelrecord.build_record(
        {"event_loop": 0.01, "brand_new_probe": 0.5}, testbed_window_s=1.0)
    for bench in record["benchmarks"].values():
        assert bench["cpu_count"] >= 1
        assert bench["python"].count(".") == 2


def test_full_testbed_probe_is_gated_in_flows():
    # The miss-path probe: 500 flows per run, gated like the kernel
    # probes, its committed record stamped with the measuring machine.
    import perf_gate
    assert perf_gate.GATED_PROBES["test_full_testbed_event_cost"] \
        == "full_testbed"
    assert kernelrecord.PROBE_UNITS["full_testbed"] == 500
    bench = kernelrecord.load_baseline()["benchmarks"]["full_testbed"]
    assert bench["units"] == 500
    assert bench["after"]["events_per_sec"] == pytest.approx(
        500 / bench["after"]["seconds"], rel=1e-4)
    assert bench["cpu_count"] >= 1
    assert bench["python"].count(".") == 2


def test_event_loop_until_probe_is_gated_in_events():
    # The timer chain under ``run(until=…)``, the loop shape every
    # testbed run drives: 20k events per run, recorded against the
    # kernel's earlier bounded loop and stamped with the measuring machine.
    import bench_simkit
    import perf_gate
    assert perf_gate.GATED_PROBES["test_event_loop_until_throughput"] \
        == "event_loop_until"
    assert kernelrecord.PROBE_UNITS["event_loop_until"] == 20_000
    assert bench_simkit._event_loop_until_chain() == 20_000
    bench = kernelrecord.load_baseline()["benchmarks"]["event_loop_until"]
    assert bench["units"] == 20_000
    assert bench["before"]["seconds"] \
        == kernelrecord.BEFORE_SECONDS["event_loop_until"]
    assert bench["after"]["events_per_sec"] == pytest.approx(
        20_000 / bench["after"]["seconds"], rel=1e-4)
    assert bench["speedup"] == round(
        bench["before"]["seconds"] / bench["after"]["seconds"], 2)
    assert bench["cpu_count"] >= 1
    assert bench["python"].count(".") == 2


def test_workload_generation_probe_is_gated_in_packets():
    # The quick ``all`` grid's 98 generator calls, 36,800 packets per
    # run, recorded against the per-packet header construction it
    # replaced and stamped with the measuring machine.
    import perf_gate
    assert perf_gate.GATED_PROBES["test_workload_generation"] \
        == "workload_generation"
    assert kernelrecord.PROBE_UNITS["workload_generation"] == 36_800
    bench = kernelrecord.load_baseline()["benchmarks"]["workload_generation"]
    assert bench["units"] == 36_800
    assert bench["before"]["seconds"] \
        == kernelrecord.BEFORE_SECONDS["workload_generation"]
    assert bench["after"]["events_per_sec"] == pytest.approx(
        36_800 / bench["after"]["seconds"], rel=1e-4)
    assert bench["speedup"] > 1
    assert bench["cpu_count"] >= 1
    assert bench["python"].count(".") == 2


def test_committed_record_has_shard_scaling_section():
    record = kernelrecord.load_baseline()
    section = record["shard_scaling"]
    assert section["scenario"] == "line:4"
    assert section["cpu_count"] >= 1
    assert section["floor_workers_2"] == 1.8
    assert {"1", "2", "4"} <= set(section["workers"])
    for point in section["workers"].values():
        assert point["seconds"] > 0
        assert point["events_per_sec"] > 0


def test_committed_record_has_shard_transport_section():
    """One wire, one record: inline vs fork walls and the pipe's cost."""
    record = kernelrecord.load_baseline()
    section = record["shard_transport"]
    assert section["scenario"] == "line:4"
    assert section["cpu_count"] >= 1
    assert section["python"].count(".") == 2
    assert "codecs" not in section
    assert not any(key.startswith(("floor", "overhead_ratio"))
                   for key in section)
    assert section["rounds"] > 0
    assert section["bytes_total"] > 0
    assert section["serialize_seconds"] > 0
    inline = section["inline_rounds_wall_seconds"]
    fork = section["fork_rounds_wall_seconds"]
    assert inline > 0 and fork > 0
    assert section["overhead_ms_per_round"] == pytest.approx(
        (fork - inline) / section["rounds"] * 1e3, abs=1e-3)

def test_expiry_sweep_probe_is_gated_against_the_scan():
    # The indexed sweep against its full-scan reference, measured as
    # one interleaved pair: 150 sweeps per run, both sides in the
    # record, the ratio under the gate's budget, the machine stamped.
    import bench_simkit
    import perf_gate
    assert kernelrecord.PROBE_UNITS["expiry_sweep"] \
        == bench_simkit.EXPIRY_SWEEPS == 150
    bench = kernelrecord.load_baseline()["benchmarks"]["expiry_sweep"]
    assert bench["units"] == 150
    before, after = bench["before"]["seconds"], bench["after"]["seconds"]
    assert bench["paired_ratio"] == round(after / before, 3)
    assert bench["speedup"] == round(before / after, 2)
    assert bench["paired_ratio"] < perf_gate.EXPIRY_SWEEP_BUDGET < 1.0
    assert bench["cpu_count"] >= 1
    assert bench["python"].count(".") == 2
    assert "expiry_sweep" not in kernelrecord.BEFORE_SECONDS
    assert "expiry_sweep" not in perf_gate.GATED_PROBES.values()


def test_paired_entry_records_both_sides():
    entry = kernelrecord.paired_entry("expiry_sweep", 0.2, 0.05)
    assert entry["before"]["seconds"] == 0.2
    assert entry["after"]["seconds"] == 0.05
    assert entry["after"]["events_per_sec"] == 3000.0
    assert (entry["speedup"], entry["paired_ratio"]) == (4.0, 0.25)
