"""Compare two sets of benchmark results, workload by workload.

Usage (from the repository root)::

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file holds records appended by ``perfbench/run.py`` (by default
``.perfbench_out/results.jsonl``; pass ``--out`` to keep sets apart).
For every workload x end-to-end metric the untraced runs' median and
quartiles are printed with a verdict against the bound in
``BENCHMARK.json``:

* ``worse`` - the median moved the wrong way by more than the bound
  (and, if either side's quartile spread exceeds the bound, every AFTER
  run is strictly worse than every BEFORE run);
* ``better`` - the median improved by more than the bound, or, if
  either side's spread exceeds the bound, every AFTER run is strictly
  better than every BEFORE run;
* ``unresolved`` - either side's spread exceeds the bound and neither
  of the above holds;
* ``same`` - otherwise.

The end-to-end times are already scaled by the host's slowdown,
probed around and inside each pass (``speed.py``), so two sets taken
while the host ran at different speeds are ranked all the same; the
sets' median slowdowns are printed as a note of how far the host moved
between them.

The traced runs' per-layer medians follow side by side.  Results from
different machines (core count, Python version, platform) are refused.
Exit code: 0, or 1 when any verdict is ``worse``, or 2 when refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import MACHINE_KEYS  # noqa: E402


def load(path: Path) -> list:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def machines(records: list) -> set:
    return {tuple(r["stamp"][k] for k in MACHINE_KEYS) for r in records}


def slowdown(records: list) -> float:
    """Median host slowdown over a set's runs."""
    return statistics.median(r["stamp"]["slowdown"] for r in records)


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(before: list, after: list, better: str, bound: float) -> str:
    b1, bm, b3 = quartiles(before)
    a1, am, a3 = quartiles(after)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (am - bm) / bm
    if max((b3 - b1) / bm, (a3 - a1) / am) > bound:
        # Too wide to read the medians alone: only a strict separation
        # of the runs decides, and ties separate nothing.
        if all(sign * (a - b) < 0 for a in after for b in before):
            return "better"
        if worse_by > bound and all(sign * (a - b) > 0
                                    for a in after for b in before):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "same"


def values_by(records: list, trace: int) -> dict:
    """{workload: {metric: [values]}} over one kind of correct run."""
    out: dict = {}
    for record in records:
        if record["trace"] != trace or not record["correct"]:
            continue
        per = out.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    for path, records in ((args.before, before), (args.after, after)):
        failed = sum(not r["correct"] for r in records)
        if failed:
            print(f"{path}: {failed} run(s) failed their output checks "
                  f"and are left out", file=sys.stderr)
    seen = machines(before) | machines(after)
    if len(seen) != 1:
        print("refusing to rank results from different machines: "
              + "; ".join(", ".join(f"{k}={v}" for k, v in
                                    zip(MACHINE_KEYS, m))
                          for m in sorted(seen, key=str)),
              file=sys.stderr)
        return 2
    spec = json.loads(args.benchmark.read_text())
    order = [w["name"] for w in spec["workloads"]]
    print("machine: " + ", ".join(f"{k}={v}" for k, v in
                                  zip(MACHINE_KEYS, seen.pop())))
    sb, sa = slowdown(before), slowdown(after)
    print(f"host slowdown: {sb:.3f} before, {sa:.3f} after "
          f"({(sa - sb) / sb:+.1%})")

    worse = False
    e2e_b, e2e_a = values_by(before, 0), values_by(after, 0)
    print(f"\n{'workload':<14} {'metric':<14} {'before median [q1, q3]':>34}"
          f" {'after median [q1, q3]':>34} {'change':>8} {'bound':>6}"
          f"  verdict")
    for workload in order:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = e2e_b.get(workload, {}).get(name)
            a = e2e_a.get(workload, {}).get(name)
            if not b or not a:
                continue
            (b1, bm, b3), (a1, am, a3) = quartiles(b), quartiles(a)
            v = verdict(b, a, metric["better"], metric["bound"])
            worse = worse or v == "worse"
            print(f"{workload:<14} {name:<14} "
                  f"{bm:>12.5g} [{b1:.5g}, {b3:.5g}] n={len(b):<3}"
                  f"{am:>12.5g} [{a1:.5g}, {a3:.5g}] n={len(a):<3}"
                  f"{(am - bm) / bm:>+8.1%} {metric['bound']:>6.0%}  {v}")

    layer_b, layer_a = values_by(before, 1), values_by(after, 1)
    print(f"\n{'workload':<14} {'per-layer metric':<30} {'before':>14}"
          f" {'after':>14} {'delta':>14} {'ratio':>7}")
    for workload in order:
        for metric in spec["per_layer"]:
            name = metric["name"]
            b = layer_b.get(workload, {}).get(name)
            a = layer_a.get(workload, {}).get(name)
            if not b or not a:
                continue
            bm, am = statistics.median(b), statistics.median(a)
            ratio = f"{am / bm:7.3f}" if bm else "      -"
            print(f"{workload:<14} {name:<30} {bm:>14.6g} {am:>14.6g} "
                  f"{am - bm:>+14.6g} {ratio} {metric['unit']}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
