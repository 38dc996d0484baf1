"""Coarse perf-regression gate for CI.

Compares a pytest-benchmark JSON report (``pytest benchmarks/
bench_simkit.py --benchmark-json=out.json``) against the committed
``BENCH_kernel.json`` record: for every kernel probe that has an
events-per-second figure, fail if the measured rate dropped more than
``--tolerance`` (default 30 %) below the committed *after* baseline.

The tolerance is deliberately wide — CI runners are noisy and the gate
only exists to catch order-of-magnitude kernel regressions, not to
police single-digit drift.  Tighten locally by regenerating the record
(``python benchmarks/bench_simkit.py --update-baseline``) on a quiet
machine.

The gate also runs an **observability-overhead probe** (skippable with
``--no-obs-probe``).  ``Simulator.run`` is one loop whether or not a
profiler is attached; detached, the profiler costs it one integer
compare per event.  The *disabled-path* check holds the plain
``event_loop`` chain, which pays that compare, within
``--obs-disabled-tolerance`` (default 2 %) of the committed baseline.
Two *self-relative* paired measurements — profiler-enabled vs plain
event loop (the median of 21 per-round ratios; a best-of-5 ratio read
1.07–1.25 on an unchanged kernel), tracer-attached vs plain testbed run
— must stay under ``--obs-enabled-tolerance`` (default 15 %) and
``--obs-trace-tolerance``
(default 150 % — the tracer costs a real ~35 %, shared runners can
double that under load, and the budget only exists to catch
pathological regressions).  The paired ratios are machine-independent;
only the disabled-path check compares against the committed record, so
CI passes a wider disabled tolerance for runner noise.

The **expiry-sweep probe** times 15 s of 100 ms flow-table sweeps
(~3000 live rules, ~2% due per sweep) against the full-scan reference
the deadline index replaced, paired in-process, and fails when the
index costs more than ``EXPIRY_SWEEP_BUDGET`` of the scan.  Like the
enabled-profiler check it needs no committed baseline, so it does not
depend on the host's speed or phase.

Finally, the **shard-scaling probe** (skippable with
``--no-shard-probe``) re-measures the 2-worker sharded speedup on
line:4 live and enforces the committed
``shard_scaling.floor_workers_2`` floor.  It runs on multi-core
machines only, since a single-core host time-shares the workers and a
wall-clock speedup is not physically possible there (the probe skips
loudly in that case).  The committed ``shard_transport`` section is a
record of the pipe's per-round cost, not a gate, so nothing here
re-measures it.

Usage::

    python benchmarks/perf_gate.py out.json [--tolerance 0.30]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

import kernelrecord

#: pytest-benchmark test name -> (BENCH_kernel.json probe, work units).
#: ``event_loop_until`` gates the timer chain under ``run(until=…)``,
#: the loop shape every testbed run drives; ``hybrid_flows`` the hybrid
#: engine's flows/sec at the figscale 10^5-flow point — the number the
#: 10^6-flow sweep claim rests on — ``full_testbed`` the packet engine's
#: flows/sec when every flow takes the discrete miss path (switch CPU,
#: bus, links, controller), and ``workload_generation`` the packets/sec
#: of building the quick ``all`` grid's workloads.
GATED_PROBES = {
    "test_event_loop_throughput": "event_loop",
    "test_event_loop_until_throughput": "event_loop_until",
    "test_zero_delay_dispatch": "zero_delay_dispatch",
    "test_pktbuf_private_throughput": "pktbuf_private",
    "test_full_testbed_event_cost": "full_testbed",
    "test_workload_generation": "workload_generation",
    "test_hybrid_flow_throughput": "hybrid_flows",
}


#: The indexed sweep's allowed cost relative to the full scan on the
#: ``expiry_sweep`` probe.  It measures ~0.2–0.3 on 2 vCPUs; a sweep
#: that fell back to checking every rule would read ~1.
EXPIRY_SWEEP_BUDGET = 0.5


def _import_bench_simkit():
    sys.path.insert(0, str(kernelrecord.REPO_ROOT / "src"))
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    import bench_simkit
    return bench_simkit


def expiry_sweep_probe() -> bool:
    """Gate the indexed expiry sweep against its full-scan reference."""
    ratio = kernelrecord.paired_ratio(
        *_import_bench_simkit().expiry_sweep_pair())
    passed = ratio <= EXPIRY_SWEEP_BUDGET
    print(f"perf-gate: expiry sweep          {ratio:6.3f}x full scan "
          f"(budget {EXPIRY_SWEEP_BUDGET:.2f}x)  "
          f"{'ok' if passed else 'REGRESSED'}")
    return passed


def obs_overhead_probe(report, baseline, disabled_tol: float,
                       enabled_tol: float, trace_tol: float) -> bool:
    """Gate the observability layer's cost; returns True when it passes.

    Three checks: the plain ``event_loop`` chain against the committed
    baseline (a detached profiler must cost the loop nothing beyond its
    one per-event compare), and two in-process paired ratios
    (profiled/plain event loop as a median of per-round ratios,
    traced/plain testbed) that need no committed baseline at all.
    """
    bench_simkit = _import_bench_simkit()

    ok = True
    committed = baseline["benchmarks"]["event_loop"]["after"][
        "events_per_sec"]
    units = kernelrecord.PROBE_UNITS["event_loop"]
    for bench in report["benchmarks"]:
        if GATED_PROBES.get(bench["name"]) == "event_loop":
            measured = units / bench["stats"]["min"]
            floor = committed * (1.0 - disabled_tol)
            passed = measured >= floor
            ok = ok and passed
            print(f"perf-gate: obs disabled path   "
                  f"{measured:12,.0f} ev/s (floor {floor:12,.0f}, "
                  f"-{disabled_tol:.0%} of baseline)  "
                  f"{'ok' if passed else 'REGRESSED'}")

    ratio = kernelrecord.paired_median_ratio(
        bench_simkit._event_loop_chain,
        bench_simkit._event_loop_profiled_chain)
    passed = ratio <= 1.0 + enabled_tol
    ok = ok and passed
    print(f"perf-gate: obs profiler enabled  {ratio:6.3f}x plain "
          f"(budget {1.0 + enabled_tol:.2f}x)  "
          f"{'ok' if passed else 'REGRESSED'}")

    ratio = kernelrecord.paired_ratio(
        bench_simkit._testbed_run,
        lambda: bench_simkit._observed_testbed_run(trace=True), rounds=3)
    passed = ratio <= 1.0 + trace_tol
    ok = ok and passed
    print(f"perf-gate: obs tracer attached   {ratio:6.3f}x plain "
          f"(budget {1.0 + trace_tol:.2f}x)  "
          f"{'ok' if passed else 'REGRESSED'}")
    return ok


def shard_scaling_probe(baseline, rounds: int = 2) -> bool:
    """Gate the 2-worker shard speedup against the committed floor.

    Re-measures serial vs 2-worker sharded wall time live (the committed
    ``shard_scaling`` numbers are machine-specific; the *floor* is the
    contract).  Wall-clock speedup from sharding is only physical on a
    multi-core machine — a single-core host time-shares the workers and
    measures transport overhead, not scaling — so the probe skips loudly
    there instead of reporting a fake regression.
    """
    section = baseline.get("shard_scaling")
    if section is None:
        print("perf-gate: shard scaling         no committed shard_scaling "
              "section — skipped")
        return True
    floor = section.get("floor_workers_2", 1.4)
    cores = os.cpu_count() or 1
    if cores < 2:
        print(f"perf-gate: shard scaling         SKIPPED — {cores} CPU "
              f"core(s); the 2-worker floor (x{floor}) needs a "
              f"multi-core machine")
        return True
    import bench_shard
    serial_s = bench_shard.time_serial(rounds)
    sharded_s = bench_shard.time_sharded(2, rounds)
    speedup = serial_s / sharded_s
    passed = speedup >= floor
    print(f"perf-gate: shard scaling         x{speedup:.2f} at 2 workers "
          f"(floor x{floor}, serial {serial_s:.3f}s, sharded "
          f"{sharded_s:.3f}s)  {'ok' if passed else 'REGRESSED'}")
    return passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="pytest-benchmark JSON report")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop in events/sec "
                             "(default 0.30)")
    parser.add_argument("--obs-disabled-tolerance", type=float,
                        default=0.02,
                        help="allowed drop of the profiler-detached "
                             "event_loop path below the committed "
                             "baseline (default 0.02)")
    parser.add_argument("--obs-enabled-tolerance", type=float,
                        default=0.15,
                        help="allowed profiler-enabled overhead over the "
                             "plain event loop, paired in-process "
                             "(default 0.15)")
    parser.add_argument("--obs-trace-tolerance", type=float, default=1.5,
                        help="allowed tracer-attached overhead over the "
                             "plain testbed run, paired in-process "
                             "(default 1.5; coarse — the tracer "
                             "costs a real ~35%, and shared "
                             "runners double that under load)")
    parser.add_argument("--no-obs-probe", action="store_true",
                        help="skip the observability-overhead probe")
    parser.add_argument("--no-shard-probe", action="store_true",
                        help="skip the shard-scaling floor probe")
    args = parser.parse_args(argv)

    baseline = kernelrecord.load_baseline()
    report = json.loads(open(args.report).read())

    results = {}
    for bench in report["benchmarks"]:
        name = bench["name"]
        probe = GATED_PROBES.get(name)
        if probe is None:
            continue
        units = kernelrecord.PROBE_UNITS[probe]
        measured = units / bench["stats"]["min"]
        committed = baseline["benchmarks"][probe]["after"]["events_per_sec"]
        results[probe] = (measured, committed)

    missing = set(GATED_PROBES.values()) - set(results)
    if missing:
        print(f"perf-gate: FAIL — probes missing from report: "
              f"{sorted(missing)}")
        return 2

    failed = False
    for probe, (measured, committed) in sorted(results.items()):
        floor = committed * (1.0 - args.tolerance)
        verdict = "ok" if measured >= floor else "REGRESSED"
        failed = failed or measured < floor
        print(f"perf-gate: {probe:22s} {measured:12,.0f} ev/s "
              f"(baseline {committed:12,.0f}, floor {floor:12,.0f})  "
              f"{verdict}")
    if not args.no_obs_probe:
        failed = (not obs_overhead_probe(
            report, baseline, args.obs_disabled_tolerance,
            args.obs_enabled_tolerance, args.obs_trace_tolerance)) or failed
    failed = (not expiry_sweep_probe()) or failed
    if not args.no_shard_probe:
        failed = (not shard_scaling_probe(baseline)) or failed
    if failed:
        print(f"perf-gate: FAIL — events/sec dropped more than "
              f"{args.tolerance:.0%} below the committed BENCH_kernel.json; "
              f"if intentional, regenerate the record with "
              f"'python benchmarks/bench_simkit.py --update-baseline'")
        return 1
    print("perf-gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
