"""Paired kernel-loop comparison of two checkouts in one interpreter.

Loads ``src/repro/simkit/simulator.py`` and ``stations.py`` from another
checkout next to this checkout's own and runs the ``bench_simkit``
timer chains and the station probe on each side's ``Simulator`` (and,
for the station probe, its ``ServiceStation``) in interleaved best-of-3
rounds, alternating which side goes first, so both sides share the
host's CPU-frequency state.  Prints, per probe, the median and
quartiles of the per-round this/other wall-time ratios and each side's
best time, then each side's profiled/plain ``paired_ratio`` (the
``perf_gate`` profiler budget).

Usage (from the repository root)::

    git archive <commit> | tar -x -C /tmp/other
    PYTHONPATH=src python benchmarks/kernel_pair.py /tmp/other 40
"""

from __future__ import annotations

import importlib.util
import pathlib
import statistics
import sys

import bench_simkit
import kernelrecord

CHAINS = ("_event_loop_until_chain", "_event_loop_chain",
          "_zero_delay_chain", "_event_loop_profiled_chain", "_station_run")


def load_simkit_module(checkout: pathlib.Path, name: str):
    """``checkout``'s ``repro.simkit.<name>`` module, imported as a
    sibling module so its relative imports resolve to this checkout."""
    path = checkout / "src" / "repro" / "simkit" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(
        f"repro.simkit._paired_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_simulator(checkout: pathlib.Path):
    """The ``Simulator`` class of ``checkout``'s kernel."""
    return load_simkit_module(checkout, "simulator").Simulator


def main(argv=None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    other = pathlib.Path(argv[0])
    #: side -> (Simulator, ServiceStation)
    sides = {"this": (bench_simkit.Simulator, bench_simkit.ServiceStation),
             "other": (load_simulator(other),
                       load_simkit_module(other, "stations").ServiceStation)}
    rounds = int(argv[1]) if len(argv) > 1 else 40
    times = {(chain, side): [] for chain in CHAINS for side in sides}
    try:
        for index in range(rounds):
            order = list(sides) if index % 2 else list(sides)[::-1]
            for chain in CHAINS:
                for side in order:
                    (bench_simkit.Simulator,
                     bench_simkit.ServiceStation) = sides[side]
                    times[chain, side].append(kernelrecord.best_of(
                        getattr(bench_simkit, chain), rounds=3))
        print(f"{'chain':28s} {'this/other':>10s} {'q1':>6s} {'q3':>6s} "
              f"{'this best':>10s} {'other best':>10s}")
        for chain in CHAINS:
            this, other = times[chain, "this"], times[chain, "other"]
            q1, median, q3 = statistics.quantiles(
                [a / b for a, b in zip(this, other)], n=4)
            print(f"{chain:28s} {median:10.3f} {q1:6.3f} {q3:6.3f} "
                  f"{min(this):10.6f} {min(other):10.6f}")
        for side, (simulator, _) in sides.items():
            bench_simkit.Simulator = simulator
            ratio = kernelrecord.paired_ratio(
                bench_simkit._event_loop_chain,
                bench_simkit._event_loop_profiled_chain)
            print(f"{side}: profiled/plain paired_ratio {ratio:.3f}")
    finally:
        bench_simkit.Simulator, bench_simkit.ServiceStation = sides["this"]


if __name__ == "__main__":
    main()
