"""The kernel perf record: measuring and writing ``BENCH_kernel.json``.

``BENCH_kernel.json`` (repo root, committed) is the tracked perf
trajectory of the simulation kernel: for each probe it stores the
*before* numbers captured at the pre-optimization commit and the *after*
numbers measured when the record was last regenerated, so future PRs
have a baseline to regress against (see the CI perf-smoke gate in
``perf_gate.py``).

Regenerate with::

    PYTHONPATH=src python benchmarks/bench_simkit.py            # _output copy
    PYTHONPATH=src python benchmarks/bench_simkit.py --update-baseline

Probes use best-of-N ``perf_counter`` wall times (not pytest-benchmark
statistics) so the script is runnable anywhere; absolute numbers are
machine-specific, the committed speedups are the meaningful signal.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import time
from typing import Callable, Dict, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_kernel.json"
OUTPUT_PATH = pathlib.Path(__file__).resolve().parent / "_output" / "BENCH_kernel.json"

#: Pre-optimization wall times (seconds, best-of-5 perf_counter) captured
#: at commit e902188 — the last commit before the kernel fast-path —
#: on the same machine that produced the committed *after* numbers.
#: ``pktbuf_private`` joined with the shared-pool PR: its *before* is
#: the pool-less PacketBuffer at the last pre-pool commit, so the gate
#: keeps the null-pool store/release path from paying for pooling.
#: ``hybrid_flows`` joined with the hybrid-engine PR and its *before*
#: is different in kind: the **packet engine on the identical
#: workload** (the figscale 10^5-flow point, same machine, workload
#: construction excluded), so the recorded speedup IS the
#: hybrid-vs-packet ratio the engine exists to deliver.  That 753.5 s
#: was measured with the eager packet generator, which queued every
#: send of the run (6.4 million at that point) at t = 0; the streamed
#: generator keeps one send queued per source and runs the packet
#: engine much faster (DESIGN.md §16), so the recorded speedup
#: overstates today's ratio.  The gated *after* is the hybrid engine's
#: own time and stays comparable.
#: ``full_testbed`` (500 flows, every one a table miss) was re-based
#: when it became gated: *before* is the commit whose links still spent
#: two events per hop (DESIGN.md §20), *after* the one-event link; each
#: side is the best of 15 interleaved runs of the best-of-5 probe on one
#: 2-vCPU host, Python 3.11.7.  ``workload_generation`` (the quick
#: ``all`` grid's 98 generator calls) joined when generators began
#: building each header stack once per flow: *before* is the commit
#: that built and validated every packet's headers from scratch, and
#: both sides were measured interleaved the same way (best-of-7 probe).
#: ``event_loop_until`` (the timer chain under ``run(until=…)``) joined
#: when ``Simulator.run`` became the only event loop: *before* is the
#: commit that still kept a drain-only loop and a profiled twin, and
#: each side is the best of 15 interleaved runs of the best-of-5 probe
#: with both commits' ``simulator.py`` loaded in one interpreter
#: (``kernel_pair.load_simulator``), 2 vCPUs, Python 3.11.7.
#: ``station`` was re-based when a station job stopped being a ``Job``
#: record: *before* is the commit that still allocated one per job,
#: *after* the change, each the best of 20 interleaved best-of-3 runs
#: with both commits' ``simulator.py`` and ``stations.py`` loaded in
#: one interpreter (``kernel_pair.py``), 2 vCPUs, Python 3.11.7.
BEFORE_SECONDS = {
    "event_loop": 0.025808,
    "event_loop_until": 0.011750,
    "zero_delay_dispatch": 0.038466,
    "station": 0.017089,
    "pktbuf_private": 0.013748,
    "full_testbed": 0.092399,
    "workload_generation": 0.417841,
    "hybrid_flows": 753.517388,
}

#: Work units executed per probe run (events for the chains, jobs for
#: the station, flows for the testbed and hybrid scale probes, packets
#: for workload generation, sweeps for the expiry probe; the testbed
#: probe also reports simulated seconds per wall second).
PROBE_UNITS = {
    "event_loop": 20_000,
    "event_loop_until": 20_000,
    "zero_delay_dispatch": 20_000,
    "station": 10_000,
    "pktbuf_private": 20_000,
    "full_testbed": 500,
    "workload_generation": 36_800,
    "hybrid_flows": 100_000,
    "expiry_sweep": 150,
}


def best_of(fn: Callable[[], object], rounds: int = 5) -> float:
    """Minimum wall time of ``rounds`` calls to ``fn`` (seconds)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


def paired_best(base_fn: Callable[[], object],
                probe_fn: Callable[[], object],
                rounds: int = 5) -> Tuple[float, float]:
    """Best-of-N wall times ``(base, probe)``, measured interleaved."""
    base = probe = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        base_fn()
        base = min(base, time.perf_counter() - t0)
        t0 = time.perf_counter()
        probe_fn()
        probe = min(probe, time.perf_counter() - t0)
    return base, probe


def paired_ratio(base_fn: Callable[[], object],
                 probe_fn: Callable[[], object],
                 rounds: int = 5) -> float:
    """Best-of-N wall-time ratio ``probe/base``, measured interleaved.

    Alternating the two workloads each round exposes them to the same
    CPU-frequency/thermal state, which makes the ratio far more stable
    on noisy machines than two independent :func:`best_of` calls — the
    right tool for self-relative overhead probes (profiler on/off,
    tracer on/off) and for a code path against its in-process reference
    (the indexed expiry sweep against the full scan).
    """
    base, probe = paired_best(base_fn, probe_fn, rounds)
    return probe / base


def paired_median_ratio(base_fn: Callable[[], object],
                        probe_fn: Callable[[], object],
                        rounds: int = 21) -> float:
    """Median of per-round ``probe/base`` wall-time ratios.

    Each round times the two workloads back to back, alternating which
    goes first, so a drift in host speed moves both sides of a round's
    ratio together; the median then drops the rounds a burst of other
    load hit.  :func:`paired_ratio`'s best-of-N takes each side's
    minimum from different rounds, so one lucky round on one side moves
    it: a budget gate on an unchanged kernel needs this one.
    """
    ratios = []
    for index in range(rounds):
        order = (base_fn, probe_fn) if index % 2 == 0 else (probe_fn,
                                                            base_fn)
        seconds = []
        for fn in order:
            t0 = time.perf_counter()
            fn()
            seconds.append(time.perf_counter() - t0)
        base, probe = seconds if index % 2 == 0 else seconds[::-1]
        ratios.append(probe / base)
    return statistics.median(ratios)


def _rates(name: str, seconds: float,
           window_s: Optional[float] = None) -> Dict[str, float]:
    entry: Dict[str, float] = {"seconds": round(seconds, 6)}
    units = PROBE_UNITS.get(name)
    if units is not None:
        entry["events_per_sec"] = round(units / seconds, 1)
        entry["ns_per_event"] = round(seconds / units * 1e9, 1)
    if window_s is not None:
        entry["testbed_seconds_per_sec"] = round(window_s / seconds, 4)
    return entry


#: Record schemas this toolchain can read.  ``bench-kernel/1`` is the
#: original before/after probe record; ``bench-kernel/2`` adds the
#: per-component ``event_loop`` self-time breakdown and the measured
#: observability-overhead ratios.  New records are written as v2; v1
#: records stay readable (the extra sections are simply absent).
SCHEMAS = ("bench-kernel/1", "bench-kernel/2")
CURRENT_SCHEMA = "bench-kernel/2"


def build_record(after_seconds: Dict[str, float],
                 testbed_window_s: float,
                 components: Optional[Dict[str, float]] = None,
                 obs_overhead: Optional[Dict[str, float]] = None
                 ) -> Dict[str, object]:
    """Assemble the full before/after record from measured wall times.

    ``components`` maps component name -> fraction of sampled self-time
    in a profiled full-testbed run; ``obs_overhead`` carries the
    measured wall-time ratios of the observability layer (profiled /
    plain event loop, traced / plain testbed).  Both are optional so v1
    callers keep working, but the record schema is always written as
    ``bench-kernel/2``.  Every probe is stamped with the core count and
    Python version of the machine that measured its *after*.
    """
    machine = {"cpu_count": os.cpu_count() or 1,
               "python": platform.python_version()}
    benchmarks: Dict[str, object] = {}
    for name, before_s in BEFORE_SECONDS.items():
        # A probe can legitimately be absent from one measuring run
        # (e.g. a quick pass that skips the slow scale probes); keep the
        # record buildable instead of KeyError-ing, and let merge_probe
        # fold the missing number in later.
        if name not in after_seconds:
            continue
        after_s = after_seconds[name]
        window = testbed_window_s if name == "full_testbed" else None
        benchmarks[name] = {
            "units": PROBE_UNITS.get(name, None),
            "before": _rates(name, before_s, window),
            "after": _rates(name, after_s, window),
            "speedup": round(before_s / after_s, 2),
            **machine,
        }
    # After-only probes (no committed *before*) are new measurements
    # that predate their baseline capture — record them rather than
    # silently dropping them.
    for name, after_s in after_seconds.items():
        if name in BEFORE_SECONDS:
            continue
        window = testbed_window_s if name == "full_testbed" else None
        benchmarks[name] = {
            "units": PROBE_UNITS.get(name, None),
            "after": _rates(name, after_s, window),
            **machine,
        }
    record: Dict[str, object] = {
        "schema": CURRENT_SCHEMA,
        "note": ("best-of-N perf_counter wall times; 'before' captured at "
                 "the pre-optimization commit on the same machine. "
                 "Regenerate: PYTHONPATH=src python benchmarks/"
                 "bench_simkit.py --update-baseline"),
        "benchmarks": benchmarks,
    }
    if components is not None:
        record["components"] = {name: round(share, 4)
                                for name, share in components.items()}
    if obs_overhead is not None:
        record["obs_overhead"] = {name: round(ratio, 3)
                                  for name, ratio in obs_overhead.items()}
    return record


def paired_entry(name: str, before_s: float,
                 after_s: float) -> Dict[str, object]:
    """Record a probe whose *before* is a reference measured alongside it.

    ``before_s`` and ``after_s`` are the two sides of one
    :func:`paired_best` session on this machine, so the stored
    ``paired_ratio`` (after / before) is the number a paired gate checks.
    """
    return {
        "units": PROBE_UNITS.get(name, None),
        "before": _rates(name, before_s),
        "after": _rates(name, after_s),
        "speedup": round(before_s / after_s, 2),
        "paired_ratio": round(after_s / before_s, 3),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
    }


def write_record(record: Dict[str, object], path: pathlib.Path) -> None:
    """Write ``record`` as stable, diff-friendly JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=False) + "\n")


def load_baseline(path: pathlib.Path = BASELINE_PATH) -> Dict[str, object]:
    """Load the committed record (raises if it has not been generated).

    Accepts any schema in :data:`SCHEMAS` — v1 records predate the
    component/overhead sections and are still valid baselines.
    """
    record = json.loads(path.read_text())
    schema = record.get("schema")
    if schema not in SCHEMAS:
        raise ValueError(f"{path}: unsupported schema {schema!r} "
                         f"(expected one of {SCHEMAS})")
    return record


def merge_probe(name: str, seconds: float,
                window_s: Optional[float] = None,
                path: pathlib.Path = OUTPUT_PATH) -> None:
    """Fold one freshly measured probe into the ``_output`` record.

    Used by benchmarks that already ran the workload under
    pytest-benchmark (``bench_headline.py``) to contribute their wall
    time without re-running it; only the *after* side is replaced.
    """
    if path.exists():
        record = json.loads(path.read_text())
    else:
        record = {"schema": CURRENT_SCHEMA, "benchmarks": {}}
    bench = record["benchmarks"].setdefault(name, {})
    before_s = BEFORE_SECONDS.get(name)
    if before_s is not None:
        bench["before"] = _rates(name, before_s, window_s)
        bench["speedup"] = round(before_s / seconds, 2)
    bench["after"] = _rates(name, seconds, window_s)
    write_record(record, path)
