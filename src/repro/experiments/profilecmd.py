"""The ``profile`` and ``bench diff`` CLI subcommands.

``repro-sdn-buffer profile [--scenario fanin:2] ...`` runs a small
observed sweep with the component profiler and health monitors attached
and leaves three artifacts in ``--out``:

* ``profile.json`` — the merged :class:`~repro.obs.ProfileReport`;
* ``heartbeats.jsonl`` — one line per monitor heartbeat (streamed live
  while a one-worker run executes, rewritten atomically at the end);
* ``trace.json`` — a Perfetto-loadable Chrome trace whose extra
  "wall-clock" processes carry per-component self-time and the
  sim-rate counter track.

It prints the top-components-by-self-time table to stdout and exits
non-zero when any invariant monitor fired.

``repro-sdn-buffer bench diff old.json new.json`` compares two
``BENCH_kernel.json`` records (schema ``bench-kernel/1`` or ``/2``)
probe by probe — the local half of the perf-regression toolchain; the
CI half is ``benchmarks/perf_gate.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

_MECHANISMS = ("buffer-16", "buffer-256", "no-buffer", "flow-256")


def _resolve_mechanism(name: str):
    from ..core.config import (buffer_16, buffer_256, flow_buffer_256,
                               no_buffer)
    return {"buffer-16": buffer_16, "buffer-256": buffer_256,
            "no-buffer": no_buffer, "flow-256": flow_buffer_256}[name]()


def _parse_profile_args(argv: Sequence[str]) -> argparse.Namespace:
    from ..obs import ComponentProfiler
    parser = argparse.ArgumentParser(
        prog="repro-sdn-buffer profile",
        description="Run a profiled, monitored sweep and write the "
                    "wall-clock profile, heartbeat JSONL and Perfetto "
                    "trace artifacts.")
    parser.add_argument("--scenario", metavar="SHAPE[:N]", default="single",
                        help="topology: single, line:N, or fanin:K "
                             "(default: single)")
    parser.add_argument("--mechanism", choices=_MECHANISMS,
                        default="buffer-16",
                        help="buffer mechanism under test "
                             "(default: buffer-16)")
    parser.add_argument("--rates", type=float, nargs="+", default=[20.0],
                        help="sending rates in Mbps (default: 20)")
    parser.add_argument("--reps", type=int, default=1,
                        help="repetitions per rate (default: 1)")
    parser.add_argument("--flows", type=int, default=200,
                        help="workload-A flow count (default: 200)")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes (default: 1; one-worker "
                             "runs also stream heartbeats live)")
    parser.add_argument("--stride", type=int,
                        default=ComponentProfiler.DEFAULT_STRIDE,
                        help="profile every Nth event (default: "
                             f"{ComponentProfiler.DEFAULT_STRIDE})")
    parser.add_argument("--interval", type=float, default=0.010,
                        help="monitor heartbeat interval in sim seconds "
                             "(default: 0.010)")
    parser.add_argument("--mm1", action="store_true",
                        help="also check the M/M/1 setup-delay envelope")
    parser.add_argument("--top", type=int, default=12,
                        help="rows in the top-components table "
                             "(default: 12)")
    parser.add_argument("--out", metavar="DIR", default="profile_out",
                        help="artifact directory (default: profile_out)")
    return parser.parse_args(argv)


def profile_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro profile`` body; returns a process exit code."""
    args = _parse_profile_args(list(argv) if argv is not None else
                               sys.argv[1:])
    from ..obs import ObsCollector, ObsConfig
    from ..scenarios import parse_scenario
    from .figures import workload_a_factory
    from .runner import sweep

    try:
        scenario = parse_scenario(args.scenario)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.workers < 1 or args.reps < 1 or args.stride < 1:
        print("--workers, --reps and --stride must be >= 1",
              file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    heartbeat_path = out_dir / "heartbeats.jsonl"

    # With one worker the sweep runs in this process, whose executor
    # streams each heartbeat to disk as it fires, so a hung run can
    # still be diagnosed from the partial file; the collector rewrites
    # the file atomically (with violations appended) at the end either
    # way.  Fork workers cannot stream across the process boundary —
    # their heartbeats only appear in the final rewrite.
    stream = open(heartbeat_path, "w") if args.workers == 1 else None

    def live_sink(record: dict) -> None:
        stream.write(json.dumps(record, sort_keys=True) + "\n")
        stream.flush()

    config = ObsConfig(trace=True, profile=True, profile_stride=args.stride,
                       monitor=True, monitor_interval=args.interval,
                       mm1_envelope=args.mm1)
    obs = ObsCollector(config,
                       heartbeat_sink=live_sink if stream else None)
    mechanism = _resolve_mechanism(args.mechanism)
    print(f"# profiling {mechanism.label} on {args.scenario}: "
          f"rates={[f'{r:g}' for r in args.rates]} reps={args.reps} "
          f"flows={args.flows} stride={args.stride}", file=sys.stderr)
    try:
        result = sweep(mechanism, workload_a_factory(n_flows=args.flows),
                       args.rates, args.reps, base_seed=args.seed,
                       workers=args.workers, obs=obs, scenario=scenario,
                       progress=args.workers > 1)
    finally:
        if stream is not None:
            stream.close()

    profile = obs.merged_profile()
    if profile is None:  # pragma: no cover - profile is always on here
        print("no profile captured", file=sys.stderr)
        return 1
    print(profile.format_table(limit=args.top))

    monitors = obs.monitor_summary()
    print(f"# {obs.summary()}", file=sys.stderr)
    for path in (obs.write_profile(out_dir / "profile.json"),
                 obs.write_heartbeats(heartbeat_path),
                 obs.write_trace(out_dir / "trace.json")):
        print(f"# wrote {path}", file=sys.stderr)

    for run in monitors["runs"]:
        for violation in run["violations"]:
            print(f"# VIOLATION {run['run']}: {violation['monitor']} "
                  f"{violation['subject']} at t={violation['time']:.3f}: "
                  f"{violation['message']}", file=sys.stderr)
    if obs.total_violations:
        print(f"# {obs.total_violations} monitor violation(s) — see "
              f"{heartbeat_path}", file=sys.stderr)
        return 1
    completed = sum(row.completed_flows for row in result.rows)
    print(f"# all monitors ok ({completed} flows completed)",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# bench diff
# ---------------------------------------------------------------------------

def _load_record(path: str) -> dict:
    record = json.loads(Path(path).read_text())
    schema = record.get("schema", "")
    if not str(schema).startswith("bench-kernel/"):
        raise ValueError(f"{path}: not a BENCH_kernel record "
                         f"(schema={schema!r})")
    return record


def _probe_rate(entry: dict) -> Optional[float]:
    after = entry.get("after", {})
    return after.get("events_per_sec") or after.get("testbed_seconds_per_sec")


def bench_diff_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro bench diff`` body; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-sdn-buffer bench diff",
        description="Compare two BENCH_kernel.json records probe by "
                    "probe (schema bench-kernel/1 or /2).")
    parser.add_argument("old", help="baseline BENCH_kernel.json")
    parser.add_argument("new", help="candidate BENCH_kernel.json")
    parser.add_argument("--fail-below", type=float, default=None,
                        metavar="FRAC",
                        help="exit 1 if any probe's rate dropped more "
                             "than FRAC (e.g. 0.3) below the baseline")
    args = parser.parse_args(list(argv) if argv is not None else
                             sys.argv[1:])

    try:
        old = _load_record(args.old)
        new = _load_record(args.new)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"bench diff: {exc}", file=sys.stderr)
        return 2

    old_probes = old.get("benchmarks", {})
    new_probes = new.get("benchmarks", {})
    names = sorted(set(old_probes) | set(new_probes))
    print(f"bench diff: {args.old} ({old.get('schema')}) -> "
          f"{args.new} ({new.get('schema')})")
    print(f"{'probe':<22} {'old rate':>14} {'new rate':>14} {'change':>8}")
    worst = 0.0
    for name in names:
        old_rate = _probe_rate(old_probes.get(name, {}))
        new_rate = _probe_rate(new_probes.get(name, {}))
        if old_rate is None or new_rate is None:
            side = "old" if old_rate is None else "new"
            print(f"{name:<22} {'(missing in ' + side + ')':>38}")
            continue
        change = new_rate / old_rate - 1.0
        worst = min(worst, change)
        print(f"{name:<22} {old_rate:>14,.1f} {new_rate:>14,.1f} "
              f"{change:>+7.1%}")

    components = new.get("components")
    if components:
        print("\nper-component testbed self-time "
              "(schema bench-kernel/2):")
        old_components = old.get("components") or {}
        for component, share in sorted(components.items(),
                                       key=lambda kv: -kv[1]):
            was = old_components.get(component)
            delta = (f"  ({share - was:+.1%} vs old)"
                     if was is not None else "")
            print(f"  {component:<24} {share:>6.1%}{delta}")
    overhead = new.get("obs_overhead")
    if overhead:
        print("\nobservability overhead (self-relative):")
        for key, value in sorted(overhead.items()):
            print(f"  {key:<24} {value:6.3f}x")

    scaling = new.get("shard_scaling")
    if scaling:
        old_workers = (old.get("shard_scaling") or {}).get("workers", {})
        print(f"\nshard scaling on {scaling.get('scenario')} "
              f"({scaling.get('cpu_count')} cores, floor x"
              f"{scaling.get('floor_workers_2')} at 2 workers):")
        for point, entry in sorted(scaling.get("workers", {}).items(),
                                   key=lambda kv: int(kv[0])):
            was = old_workers.get(point, {}).get("speedup_vs_serial")
            delta = (f"  (was x{was:.2f})" if was is not None else "")
            print(f"  {point:>2} workers{'':<14} "
                  f"x{entry['speedup_vs_serial']:.2f} vs serial{delta}")

    transport = new.get("shard_transport")
    if transport and "overhead_ms_per_round" in transport:
        was = (old.get("shard_transport") or {}).get("overhead_ms_per_round")
        delta = (f"  (was {was:.3f})" if was is not None else "")
        print(f"\nshard transport on {transport.get('scenario')} "
              f"({transport.get('workers')} workers, "
              f"{transport.get('cpu_count')} cores):")
        print(f"  {'fork - inline pipe cost':<24} "
              f"{transport['overhead_ms_per_round']:6.3f} ms/round, "
              f"{transport['bytes_total']:,} wire bytes{delta}")

    if args.fail_below is not None and -worst > args.fail_below:
        print(f"bench diff: FAIL — a probe dropped {-worst:.1%} "
              f"(> {args.fail_below:.0%} allowed)", file=sys.stderr)
        return 1
    return 0
