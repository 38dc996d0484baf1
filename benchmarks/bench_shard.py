"""Shard scaling and transport probes on line:4.

Two sections of ``BENCH_kernel.json`` come out of this script:

**shard_scaling** — the wall time of one fixed line:4 repetition —
serial, then sharded over the fork transport at 1, 2 and 4 workers.
Events/sec uses one instrumented serial run's ``events_executed`` as the
numerator for every configuration: the workload is identical (the verify
mode asserts bit-identity), so the rate ratio IS the wall-time ratio.

**shard_transport** — what the pipe costs per round at 2 workers.
Inline shards send the same batches as forked ones, through the same
channel code, joined by an in-process loopback instead of a pipe; so
``(rounds_wall_fork - rounds_wall_inline) / rounds`` is the pipe's cost
alone — syscalls, context switches, the second process — with the codec
work on both sides of the difference.  Each repetition runs inline then
fork back to back (the ``paired_ratio`` idea from ``kernelrecord``) and
best-of-N minima are compared.  The section records both walls, the
codec time, the wire bytes, and the measuring machine's core count and
Python version; it is a record, not a gate.

Both probes use a *shard-friendly calibration*:
``link_propagation_delay`` raised to 5 ms (WAN-ish inter-site cables)
instead of the default LAN 5 µs.  Propagation delay is the conservative
lookahead, and lookahead is what sharding scales with — at 5 µs the
coordinator synchronizes every few microseconds of simulated time and
null-message overhead swamps any parallelism (DESIGN.md §17 quantifies
when sharding loses).  The serial baseline runs the *identical*
calibration, so the comparison is honest.

The scaling floor (≥1.8x events/sec at 2 workers) is only physical on a
multi-core machine: ``perf_gate.py`` and the ``--check`` mode below
enforce it when ``os.cpu_count() >= 2`` and report it as skipped
otherwise.  On one core the workers time-share, so the scaling probe
measures pure overhead.  The record always stores the measuring
machine's core count alongside the numbers.

Usage::

    PYTHONPATH=src python benchmarks/bench_shard.py                    # measure
    PYTHONPATH=src python benchmarks/bench_shard.py --update-baseline  # commit
    PYTHONPATH=src python benchmarks/bench_shard.py --check --floor 1.8

To re-record the transport section alone::

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'benchmarks'); \\
        import bench_shard as b, kernelrecord as k; \\
        b.merge_into(k.BASELINE_PATH, b.measure_transport(), 'shard_transport')"
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import pathlib
import platform
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import kernelrecord

SCENARIO = "line:4"
N_FLOWS = 1600
RATE_MBPS = 40.0
SEED = 5
#: Shard-friendly propagation delay (the lookahead): 5 ms WAN-ish cables.
PROPAGATION_DELAY = 5e-3
WORKER_POINTS = (1, 2, 4)
DEFAULT_FLOOR = 1.8

#: Transport-probe workload: lighter than the scaling probe (the probe
#: isolates per-round overhead, not throughput) but dense enough that
#: every round carries real cross-shard traffic.
TRANSPORT_FLOWS = 400
TRANSPORT_WORKERS = 2


def _calibration():
    from repro.experiments.calibration import default_calibration
    return dataclasses.replace(default_calibration(),
                               link_propagation_delay=PROPAGATION_DELAY)


def _workload():
    from repro.simkit import RandomStreams, mbps
    from repro.trafficgen import single_packet_flows
    return single_packet_flows(mbps(RATE_MBPS), n_flows=N_FLOWS,
                               rng=RandomStreams(SEED))


def _scenario():
    from repro.scenarios import parse_scenario
    return parse_scenario(SCENARIO)


def count_serial_events() -> int:
    """One instrumented serial run's executed-event count."""
    from repro.core import BufferConfig
    from repro.faults import install_faults
    from repro.scenarios import build_scenario
    workload = _workload()
    testbed = build_scenario(_scenario(), BufferConfig(), workload,
                             calibration=_calibration(), seed=SEED)
    install_faults(testbed, None)
    testbed.controller.start_handshake()
    for pktgen in testbed.pktgens:
        pktgen.start(at=0.020)
    testbed.sim.run(until=0.020 + workload.duration + 0.250)
    events = testbed.sim.events_executed
    testbed.shutdown()
    return events


def time_serial(rounds: int) -> float:
    from repro.core import BufferConfig
    from repro.experiments import run_once

    def once():
        run_once(BufferConfig(), _workload(), seed=SEED,
                 calibration=_calibration(), scenario=_scenario())
    return kernelrecord.best_of(once, rounds=rounds)


def time_sharded(workers: int, rounds: int) -> float:
    from repro.core import BufferConfig
    from repro.shard import ShardSpec, execute_sharded
    spec = _scenario().with_shard(ShardSpec(mode="per-switch",
                                            workers=workers))

    def once():
        execute_sharded(BufferConfig(), _workload(), seed=SEED,
                        calibration=_calibration(), scenario=spec,
                        transport="fork")
    return kernelrecord.best_of(once, rounds=rounds)


def _transport_workload():
    from repro.simkit import RandomStreams, mbps
    from repro.trafficgen import single_packet_flows
    return single_packet_flows(mbps(RATE_MBPS), n_flows=TRANSPORT_FLOWS,
                               rng=RandomStreams(SEED))


def _transport_run(transport: str):
    """One sharded repetition; returns its ShardRunReport."""
    from repro.core import BufferConfig
    from repro.shard import ShardSpec, execute_sharded
    spec = _scenario().with_shard(
        ShardSpec(mode="per-switch", workers=TRANSPORT_WORKERS))
    result = execute_sharded(BufferConfig(), _transport_workload(),
                             seed=SEED, calibration=_calibration(),
                             scenario=spec, transport=transport)
    return result.report


def measure_transport(rounds: int = 7) -> dict:
    """Best-of-N rounds wall, inline vs fork, and the pipe's per-round cost.

    Both carriers send the same batches through the same channel code
    (the two runs must agree on rounds, messages, coalesced rounds and
    stalls; wire bytes may differ, since inline shards share the
    process's xid counter and pickle sizes an int by its value), so
    ``(fork - inline) / rounds`` is what the pipe itself costs per
    advance/reply round: syscalls, context switches, the second process.
    Each repetition runs inline then fork back to back, so the two share
    the machine state of one time slice; minima are then compared across
    repetitions (``kernelrecord.paired_ratio``'s approach).  A record,
    not a gate.
    """
    best = {}     # transport -> min rounds_wall_seconds
    reports = {}  # transport -> report of the best repetition
    for _ in range(rounds):
        for transport in ("inline", "fork"):
            report = _transport_run(transport)
            if report.rounds_wall_seconds < best.get(transport, math.inf):
                best[transport] = report.rounds_wall_seconds
                reports[transport] = report
    inline, fork = reports["inline"], reports["fork"]
    shape = ("rounds", "messages", "rounds_coalesced", "horizon_stalls")
    if any(getattr(inline, key) != getattr(fork, key) for key in shape):
        raise RuntimeError(
            "inline and fork runs diverged: " + ", ".join(
                f"{key} {getattr(inline, key)} vs {getattr(fork, key)}"
                for key in shape))
    overhead_ms = (best["fork"] - best["inline"]) / max(fork.rounds, 1) * 1e3
    section = {
        "scenario": SCENARIO,
        "flows": TRANSPORT_FLOWS,
        "rate_mbps": RATE_MBPS,
        "link_propagation_delay": PROPAGATION_DELAY,
        "workers": TRANSPORT_WORKERS,
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "best_of": rounds,
        "rounds": fork.rounds,
        "rounds_coalesced": fork.rounds_coalesced,
        "inline_rounds_wall_seconds": round(best["inline"], 6),
        "fork_rounds_wall_seconds": round(best["fork"], 6),
        "overhead_ms_per_round": round(overhead_ms, 4),
        "serialize_seconds": round(fork.serialize_seconds, 6),
        "bytes_total": fork.bytes_total,
    }
    print(f"bench-shard: transport inline {best['inline']:8.3f}s, fork "
          f"{best['fork']:8.3f}s rounds_wall ({fork.rounds} rounds) -> "
          f"{overhead_ms:6.3f} ms/round pipe cost "
          f"({fork.bytes_total:,} wire bytes fork, "
          f"{inline.bytes_total:,} inline)")
    return section


def measure(worker_points=WORKER_POINTS, rounds: int = 3) -> dict:
    events = count_serial_events()
    serial_s = time_serial(rounds)
    section = {
        "scenario": SCENARIO,
        "flows": N_FLOWS,
        "rate_mbps": RATE_MBPS,
        "link_propagation_delay": PROPAGATION_DELAY,
        "cpu_count": os.cpu_count() or 1,
        "events": events,
        "floor_workers_2": DEFAULT_FLOOR,
        "serial": {"seconds": round(serial_s, 6),
                   "events_per_sec": round(events / serial_s, 1)},
        "workers": {},
    }
    for workers in worker_points:
        sharded_s = time_sharded(workers, rounds)
        section["workers"][str(workers)] = {
            "seconds": round(sharded_s, 6),
            "events_per_sec": round(events / sharded_s, 1),
            "speedup_vs_serial": round(serial_s / sharded_s, 3),
        }
        print(f"bench-shard: workers={workers}  {sharded_s:8.3f}s  "
              f"x{serial_s / sharded_s:.2f} vs serial "
              f"({events / sharded_s:,.0f} ev/s)")
    print(f"bench-shard: serial            {serial_s:8.3f}s  "
          f"({events / serial_s:,.0f} ev/s, {events:,} events, "
          f"{section['cpu_count']} cores)")
    return section


def merge_into(path: pathlib.Path, section: dict,
               name: str = "shard_scaling") -> None:
    if path.exists():
        record = json.loads(path.read_text())
    else:
        record = {"schema": kernelrecord.CURRENT_SCHEMA, "benchmarks": {}}
    record[name] = section
    kernelrecord.write_record(record, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=3,
                        help="best-of rounds per point (default 3)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the committed BENCH_kernel.json "
                             "(default: the _output copy only)")
    parser.add_argument("--check", action="store_true",
                        help="measure only serial and 2 workers and "
                             "enforce the scaling floor (CI mode)")
    parser.add_argument("--floor", type=float, default=DEFAULT_FLOOR,
                        help="minimum 2-worker speedup for --check "
                             f"(default {DEFAULT_FLOOR})")
    args = parser.parse_args(argv)

    if args.check:
        cores = os.cpu_count() or 1
        if cores < 2:
            print(f"bench-shard: check SKIPPED — {cores} CPU core(s); "
                  f"the 2-worker scaling floor needs a multi-core machine "
                  f"(one core time-shares the workers, so scaling "
                  f"measures pure overhead)")
            return 0
        events = count_serial_events()
        serial_s = time_serial(args.rounds)
        sharded_s = time_sharded(2, args.rounds)
        speedup = serial_s / sharded_s
        print(f"bench-shard: serial {serial_s:.3f}s "
              f"({events / serial_s:,.0f} ev/s), 2 workers "
              f"{sharded_s:.3f}s ({events / sharded_s:,.0f} ev/s) — "
              f"x{speedup:.2f} (floor x{args.floor})")
        if speedup < args.floor:
            print("bench-shard: FAIL — 2-worker scaling below floor")
            return 1
        print("bench-shard: PASS")
        return 0

    section = measure(rounds=args.rounds)
    merge_into(kernelrecord.OUTPUT_PATH, section)
    transport = measure_transport(rounds=max(args.rounds, 7))
    merge_into(kernelrecord.OUTPUT_PATH, transport, "shard_transport")
    print(f"bench-shard: wrote {kernelrecord.OUTPUT_PATH}")
    if args.update_baseline:
        merge_into(kernelrecord.BASELINE_PATH, section)
        merge_into(kernelrecord.BASELINE_PATH, transport,
                   "shard_transport")
        print(f"bench-shard: wrote {kernelrecord.BASELINE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
