"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_all --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload line4_churn --seed 1 --trace 1

``--trace 0`` measures the end-to-end metrics: passes over the seeded
inputs repeat until ``--seconds`` would be exceeded, and each metric is
the median over them.  Times are in reference seconds: each pass's host
seconds scaled by the host's slowdown, probed around and inside the pass
(``speed.py``), because a shared host's speed drifts by up to 1.8x
within seconds.  The host seconds and slowdowns are kept in the record's
``samples``.

``--trace 1`` makes one untraced and one traced iteration (plus the
workload's reference run) and prints the per-layer metrics of the traced
one, in host seconds.  Metric names and units come from
``BENCHMARK.json``.  Every pass's output is checked; a failed check
makes the result ``"correct": false`` and the exit code 1.

The last stdout line is the JSON result; the full record, stamped with
the machine it ran on and the median host slowdown, is appended to
``.perfbench_out/results.jsonl`` (compare two such files with
``perfbench/compare.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import probe, reference_seconds, sampling, timed  # noqa: E402
from workloads import OUT, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Stamp fields that name the machine; compare refuses to rank two
#: results that differ in any of them.
MACHINE_KEYS = ("nproc", "python", "platform")
IMPORT_SAMPLES = 9
#: Probes each import interpreter takes of its host's speed.
IMPORT_PROBES = 5


def git_rev() -> str | None:
    """HEAD's commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the program's sources (identifies code without git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(slowdown: float) -> dict:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_rev": git_rev(),
            "src_sha256": src_digest(),
            "slowdown": slowdown}


def import_seconds(modules) -> tuple:
    """Median import time of ``modules`` in a fresh interpreter, in host
    and in reference seconds.

    Each interpreter probes its own host's slowdown right after the
    imports (``speed.py`` is imported only then, so it adds nothing to
    what is timed).
    """
    code = ("import importlib, statistics, time\n"
            "t = time.perf_counter()\n"
            f"for m in {list(modules)!r}:\n"
            "    importlib.import_module(m)\n"
            "t = time.perf_counter() - t\n"
            "import speed\n"
            f"s = [speed.probe() for _ in range({IMPORT_PROBES})]\n"
            "print(t, t / statistics.median(s))\n")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(HERE))))
    host, ref = [], []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        wall, scaled = map(float, done.stdout.split()[-2:])
        host.append(wall)
        ref.append(scaled)
    return statistics.median(host), statistics.median(ref)


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it waited for, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, seed: int, seconds: float):
    """End-to-end metrics: repeat cold+warm iterations for ``seconds``.

    Every time but the import time (see :func:`import_seconds`) is
    taken with :func:`speed.timed`, sampling the host's speed inside it,
    and all are reported in reference seconds.
    """
    host_imports, imports = import_seconds(workload.modules)
    generate, passes = [], []
    with sampling():
        started = perf_counter()
        while True:
            t0 = perf_counter()
            inputs, wall, slowdown = timed(workload.inputs, seed)
            generate.append((wall, slowdown))
            passes.extend(workload.iteration(inputs))
            took = perf_counter() - t0
            if perf_counter() - started + took > seconds:
                break
    cold = [p for p in passes if not p.warm]
    warm = [p for p in passes if p.warm]
    cold_ref = [reference_seconds(p.wall, p.slowdown) for p in cold]
    metrics = {
        "wall_s": statistics.median(cold_ref),
        "setup_s": imports + statistics.median(
            reference_seconds(*g) for g in generate),
        "flows_per_s": statistics.median(
            p.flows / s for p, s in zip(cold, cold_ref)),
        "warm_wall_s": statistics.median(
            reference_seconds(p.wall, p.slowdown) for p in warm),
    }
    samples = {
        "host_wall_s": [p.wall for p in cold],
        "host_warm_wall_s": [p.wall for p in warm],
        "host_generate_s": [g[0] for g in generate],
        "host_import_s": host_imports,
        "slowdown": ([g[1] for g in generate]
                     + [p.slowdown for p in passes]),
    }
    return metrics, passes, samples


def inline_iteration(workload, seed: int, tracer=None):
    """Generate inputs and run one inline iteration, under ``tracer`` if
    one is given.

    Returns the wall time of input generation plus the timed passes,
    and the passes.
    """
    if tracer is not None:
        tracer.install()
    try:
        t0 = perf_counter()
        inputs = workload.inputs(seed)
        generate = perf_counter() - t0
        passes = workload.iteration(inputs, inline=True)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return generate + sum(p.wall for p in passes), passes


def traced(workload, seed: int):
    """Per-layer metrics: reference run, untraced pass, traced pass."""
    from tracer import Tracer

    slowdowns = [probe()]
    reference = workload.reference(seed)
    slowdowns.append(probe())
    untraced_wall, base = inline_iteration(workload, seed)
    slowdowns.append(probe())
    tracer = Tracer()
    traced_wall, passes = inline_iteration(workload, seed, tracer)
    layers = dict.fromkeys((m["name"] for m in SPEC["per_layer"]), 0)
    layers.update(tracer.layer_metrics(traced_wall))
    layers["obs.traced_ratio"] = traced_wall / untraced_wall
    workload.finish_layers(layers, reference, base)
    samples = {"untraced_wall_s": untraced_wall,
               "traced_wall_s": traced_wall, "trace": tracer.summary(),
               "slowdown": slowdowns}
    return layers, reference["passes"] + base + passes, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT / "results.jsonl",
                        help="JSON-lines file the full record is "
                             "appended to")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"refusing to measure {repro.__file__}: not this checkout's "
              f"src/", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    if args.trace:
        values, passes, samples = traced(workload, args.seed)
    else:
        values, passes, samples = measure(workload, args.seed, args.seconds)
    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if args.trace else "end_to_end"]}

    failures = []
    attempted = failed = 0
    for p in passes:
        attempted += p.reps
        problem = workload.check(p)
        if problem is not None:
            failed += p.reps
            failures.append(problem)
    if not args.trace:
        values["peak_rss_mb"] = peak_rss_mb()

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    correct = failed == 0
    for name, metric in metrics.items():
        print(f"{name:<32} {metric['value']:>18.6f} {metric['unit']}")
    if not args.trace:
        print(f"{'fail_ratio':<32} {failed / attempted:>18.6f} ratio")
    for problem in failures:
        print(f"check failed: {problem}", file=sys.stderr)

    record = {"stamp": stamp(statistics.median(samples["slowdown"])),
              "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics, "samples": samples,
              "failures": failures}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
