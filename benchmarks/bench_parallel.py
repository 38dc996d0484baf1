"""1-worker vs N-worker wall-clock for a multi-rate sweep (repro.parallel).

Times the same (7 rates × 2 repetitions) buffer-256 sweep at
``workers=1`` (the engine's in-process executor) and on a fork pool of
``N`` workers, verifies the rows are bit-identical, and records the
measured speedup under ``benchmarks/_output/parallel_speedup.txt``.
The ≥2× speedup assertion only applies on hosts with ≥4 cores — a
1-core container can only measure the engine's overhead, which is
recorded too.
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro.core import buffer_256
from repro.experiments import sweep, workload_a_factory

from conftest import BENCH_RATES, BENCH_REPETITIONS, BENCH_WORKLOAD_A_FLOWS


def test_parallel_speedup_recorded(emit):
    factory = workload_a_factory(n_flows=BENCH_WORKLOAD_A_FLOWS)
    cores = os.cpu_count() or 1
    workers = max(2, min(cores, 8))

    start = time.perf_counter()
    one = sweep(buffer_256(), factory, BENCH_RATES, BENCH_REPETITIONS,
                base_seed=0, workers=1)
    one_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = sweep(buffer_256(), factory, BENCH_RATES, BENCH_REPETITIONS,
                     base_seed=0, workers=workers)
    parallel_s = time.perf_counter() - start

    # The headline guarantee: identical rows, not just similar ones.
    assert len(one.rows) == len(parallel.rows)
    for row_a, row_b in zip(one.rows, parallel.rows):
        assert dataclasses.asdict(row_a) == dataclasses.asdict(row_b)

    speedup = one_s / parallel_s if parallel_s > 0 else float("inf")
    tasks = len(BENCH_RATES) * BENCH_REPETITIONS
    lines = [
        "parallel engine speedup (workers=1 vs a fork pool)",
        f"sweep            : {len(BENCH_RATES)} rates x "
        f"{BENCH_REPETITIONS} reps = {tasks} tasks "
        f"(workload A, {BENCH_WORKLOAD_A_FLOWS} flows, buffer-256)",
        f"cores available  : {cores}",
        f"workers          : {workers}",
        f"1-worker wall    : {one_s:.2f} s",
        f"parallel wall    : {parallel_s:.2f} s",
        f"speedup          : {speedup:.2f}x",
        "rows bit-identical: yes",
    ]
    if cores < 4:
        lines.append(f"note: the >=2x target applies on >=4 cores; this "
                     f"host exposes {cores}, so the number above mostly "
                     f"measures pool overhead")
    emit("parallel_speedup", "\n".join(lines))

    if cores >= 4:
        assert speedup >= 2.0, (
            f"expected >=2x speedup on {cores} cores, got {speedup:.2f}x")
