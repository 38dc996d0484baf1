"""Tests of the benchmark's own code (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
import compare  # noqa: E402
from run import SPEC, inline_iteration  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, LineChurn, PaperAll, ScaleHybrid  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small(name: str):
    """A cheap instance of a workload (same code, fewer flows)."""
    return {"paper_all": lambda: PaperAll(),
            "scale_hybrid": lambda: ScaleHybrid(flows=300),
            "line4_churn": lambda: LineChurn(flows=200, capacity=64)}[name]()


def test_metric_names_and_counts():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) for name in e2e + layers)
    assert len(e2e) <= 16 and len(layers) <= 128
    assert len(set(e2e + layers)) == len(e2e) + len(layers)


def test_benchmark_json_matches_catalog():
    assert [w["name"] for w in SPEC["workloads"]] == list(catalog.WORKLOADS)
    assert list(catalog.WORKLOADS) == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(catalog.LAYERS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_layer_declares_what_it_moves():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for name, (moves, workloads) in catalog.LAYERS.items():
        assert moves and set(moves) <= e2e, name
        assert workloads and set(workloads) <= set(catalog.WORKLOADS), name


def test_every_workload_records_why():
    for name, record in catalog.WORKLOADS.items():
        for key in ("runs", "loads", "idle", "roadmap", "open_loop", "seed"):
            assert record[key], (name, key)
    assert "full_table_blowup" in catalog.WORKLOADS["line4_churn"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_controls_inputs(name):
    workload = small(name)
    assert workload.input_digest(1) == workload.input_digest(1)
    assert workload.input_digest(1) != workload.input_digest(2)


@pytest.mark.parametrize("name", ["scale_hybrid", "line4_churn"])
def test_same_seed_same_output_digest(name):
    workload = small(name)
    first = workload.iteration(workload.inputs(3), inline=True)
    second = workload.iteration(workload.inputs(3), inline=True)
    assert [p.output for p in first] == [p.output for p in second]
    assert first[0].output == first[1].output


def test_paper_all_pins_a_digest_per_base_seed():
    from workloads import load_pinned
    paper = PaperAll()
    pinned = load_pinned()["paper_all"]
    assert pinned["argv"] == paper.inputs(0)[:-2]
    assert sorted(pinned["sha256"], key=int) == [
        str(seed) for seed in range(paper.PINNED_SEEDS)]


def _layers(workload, seed):
    tracer = Tracer()
    wall, _passes = inline_iteration(workload, seed, tracer)
    return tracer.layer_metrics(wall), wall


def test_tracer_restores_every_patched_object():
    import repro.experiments.runner
    import repro.parallel.tasks
    from repro.openflow.flowtable import FlowTable
    from repro.simkit.simulator import Simulator
    before = (FlowTable.__dict__["insert"], Simulator.__dict__["run"],
              repro.experiments.runner.run_once,
              repro.parallel.tasks.run_once)
    layers, _wall = _layers(small("line4_churn"), 1)
    assert layers["openflow.flowtable.evictions"] > 0
    assert layers["simkit.events"] > 0
    assert (FlowTable.__dict__["insert"], Simulator.__dict__["run"],
            repro.experiments.runner.run_once,
            repro.parallel.tasks.run_once) == before


def test_injected_slowdown_moves_only_its_layer():
    """A 20% slower FlowTable.insert shows in its layer and no other.

    Layer times are compared as shares of the wall time without the
    injected delay, in back-to-back pairs: the host's speed drifts, but
    it scales every layer of a pass alike.
    """
    from repro.openflow.flowtable import FlowTable
    workload = LineChurn(flows=800, capacity=384)
    timed = [m["name"] for m in SPEC["per_layer"]
             if m["unit"] == "s" and m["name"] != "unattributed_s"]
    original = FlowTable.__dict__["insert"]
    injected = [0.0]

    def slower(self, *args, **kwargs):
        started = perf_counter()
        result = original(self, *args, **kwargs)
        extra = 0.2 * (perf_counter() - started)
        until = perf_counter() + extra
        while perf_counter() < until:
            pass
        injected[0] += extra
        return result

    deltas = {name: [] for name in timed}
    shares = []
    try:
        for _ in range(5):
            FlowTable.insert = original
            base, base_wall = _layers(workload, 1)
            FlowTable.insert = slower
            injected[0] = 0.0
            slow, slow_wall = _layers(workload, 1)
            clean_wall = slow_wall - injected[0]
            shares.append(injected[0] / clean_wall)
            for name in timed:
                deltas[name].append(slow.get(name, 0.0) / clean_wall
                                    - base.get(name, 0.0) / base_wall)
    finally:
        FlowTable.insert = original

    share = statistics.median(shares)
    target = "openflow.flowtable.insert_s"
    assert statistics.median(deltas[target]) > 0.5 * share, deltas[target]
    for name in timed:
        if name != target:
            moved = statistics.median(deltas[name])
            assert abs(moved) < 0.5 * share, (name, deltas[name], share)


def test_compare_verdicts():
    assert compare.verdict([10, 10.1, 9.9], [12, 12.1, 11.9],
                           "lower", 0.1) == "worse"
    assert compare.verdict([10, 10.1, 9.9], [8, 8.1, 7.9],
                           "lower", 0.1) == "better"
    assert compare.verdict([10, 10.1, 9.9], [10.05, 10, 9.95],
                           "lower", 0.1) == "same"
    assert compare.verdict([10, 14, 6, 12], [11, 7, 13, 9],
                           "lower", 0.1) == "unresolved"
    assert compare.verdict([100, 101], [80, 81], "higher", 0.1) == "worse"
    # Wider than the bound (26% spread against 25%): separated runs whose
    # median moved by less than the bound, or runs that tie, decide
    # nothing; separated runs beyond the bound do.
    wide = [8, 9, 10, 11]
    assert compare.verdict(wide, [11.5, 11.6, 11.7, 11.8],
                           "lower", 0.25) == "unresolved"
    assert compare.verdict(wide, [11, 13, 14, 15],
                           "lower", 0.25) == "unresolved"
    assert compare.verdict(wide, [12.5, 13, 14, 15],
                           "lower", 0.25) == "worse"


def _record(wall=1.0, slowdown=1.0, nproc=2):
    return {"stamp": {"nproc": nproc, "python": "3.11.7", "platform": "x",
                      "slowdown": slowdown},
            "workload": "paper_all", "trace": 0, "correct": True,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}}}


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def test_compare_refuses_different_machines(tmp_path):
    a = _write(tmp_path / "a.jsonl", [_record()])
    b = _write(tmp_path / "b.jsonl", [_record(nproc=4)])
    assert compare.main([a, b]) == 2


def test_compare_exits_1_on_a_worse_verdict(tmp_path):
    a = _write(tmp_path / "a.jsonl",
               [_record(wall=1 + i / 100) for i in range(5)])
    b = _write(tmp_path / "b.jsonl",
               [_record(wall=1.05 + i / 100, slowdown=2) for i in range(5)])
    assert compare.main([a, b]) == 0
    b = _write(tmp_path / "b.jsonl",
               [_record(wall=2 + i / 100, slowdown=2) for i in range(5)])
    assert compare.main([a, b]) == 1


def test_timed_scales_by_the_probed_slowdown():
    """Under sampling() a region is probed inside, its probes' time is
    left out of its host seconds, and a pass twice as slow at twice the
    slowdown reads the same in reference seconds."""
    import speed
    with speed.sampling():
        _none, wall, slowdown = speed.timed(
            lambda: [speed.probe() for _ in range(200)])
        inner = len(speed._samples)
    assert inner >= 2 and wall > 0 and slowdown > 0
    assert speed.reference_seconds(2.0, 2.0) == 1.0


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's files it must fail."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "line4_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
