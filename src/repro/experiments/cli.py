"""Command-line entry point: regenerate any table or figure.

Examples::

    repro-sdn-buffer table1
    repro-sdn-buffer fig2a fig3 --quick
    repro-sdn-buffer all --rates 5 25 50 75 95 --reps 5
    repro-sdn-buffer headline --full
    repro-sdn-buffer profile --scenario fanin:2
    repro-sdn-buffer bench diff BENCH_kernel.json new.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from .. import __version__
from .calibration import format_table_1
# The runners are read by name from this module's globals (_EXPERIMENTS).
from .figures import (FIGURES, ExperimentData, run_benefits_experiment,
                      run_figscale_experiment, run_figsharing_experiment,
                      run_mechanism_experiment, run_path_experiment,
                      run_resilience_experiment)
from .report import (SWEEP_TABLES, format_figure, format_headlines,
                     format_scale_experiment, format_sweep_table,
                     headline_claims, sweep_payload)

#: The experiments each non-figure target reads (a figure reads its
#: :class:`~repro.experiments.figures.FigureSpec`'s experiment).
_TARGET_EXPERIMENTS = {
    "table1": (), "headline": ("benefits", "mechanism"),
    "quoted": ("benefits", "mechanism"),
    **{table.target: (name,) for name, table in SWEEP_TABLES.items()},
    "figscale": ("scale",)}
#: ``all``, in output order.  ``figscale`` is deliberately not part of
#: it: its top flow count is a wall-clock study (minutes at 10^6
#: flows), not a paper figure.
_ALL = ("table1", *FIGURES, "figpath", "figresilience", "figsharing",
        "headline", "quoted")


@dataclass(frozen=True)
class _Experiment:
    """One experiment the CLI can run, and the options it reads."""

    #: Its runner's name in this module, looked up when it runs.
    runner: str
    #: What the progress line says is running.
    banner: str
    #: Each option (argparse dest) this experiment reads, with the runner
    #: keyword it sets; ``None`` for one the CLI applies after the run.
    reads: Dict[str, Optional[str]]
    #: The runner's ``progress`` argument.
    progress: object = True


#: What every sweep experiment reads.
_SWEEP_READS = {"reps": "repetitions", "full": "quick", "seed": "base_seed",
                "workers": "workers", "no_cache": "cache",
                "cache_dir": "cache", "trace_out": "obs",
                "metrics_out": "obs", "trace_sample": "obs", "csv": None}
#: What the paper's two experiments read besides: the run axes.
_AXIS_READS = {"rates": "rates_mbps", "scenario": "scenario",
               "pool": "scenario", "engine": "scenario",
               "shard": "scenario", "fault": "faults"}


def _scale_progress(line: str) -> None:
    print(f"# {line}", file=sys.stderr)


#: Every experiment, in run order.  The extension studies sweep their
#: own axes, so they read no run-axis option; figscale times serial,
#: uncached runs on its own workload grid.
_EXPERIMENTS = {
    "benefits": _Experiment(
        "run_benefits_experiment", "benefits experiment (workload A)",
        {**_SWEEP_READS, **_AXIS_READS, "flows": "n_flows"}),
    "mechanism": _Experiment(
        "run_mechanism_experiment", "mechanism experiment (workload B)",
        {**_SWEEP_READS, **_AXIS_READS}),
    "path": _Experiment(
        "run_path_experiment",
        "path-length experiment (workload B over line topologies)",
        {**_SWEEP_READS, "rates": "rates_mbps"}),
    "resilience": _Experiment(
        "run_resilience_experiment",
        "resilience experiment (workload A over a control-channel loss "
        "sweep)", {**_SWEEP_READS, "flows": "n_flows"}),
    "sharing": _Experiment(
        "run_figsharing_experiment",
        "buffer-sharing experiment (workload A over pool policies on "
        "fanin)", {**_SWEEP_READS, "flows": "n_flows"}),
    "scale": _Experiment(
        "run_figscale_experiment",
        "scale experiment (hybrid vs packet engine)",
        {"scale_flows": "flow_counts", "scale_packet_cap": "packet_cap"},
        progress=_scale_progress),
}


def _experiments_of(target: str) -> tuple:
    if target in FIGURES:
        return (FIGURES[target].experiment,)
    return _TARGET_EXPERIMENTS[target]


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-sdn-buffer",
        description="Regenerate tables/figures of 'Adopting SDN Switch "
                    "Buffer' (ICDCS'17 / TCC'21) on the simulated testbed.",
        epilog="An option that none of the requested targets reads "
               "exits 2 before anything runs.")
    parser.add_argument("targets", nargs="+",
                        help=f"figure ids ({', '.join(FIGURES)}), or one of "
                             f"{', '.join(_TARGET_EXPERIMENTS)}, all")
    parser.add_argument("--rates", type=float, nargs="+", default=None,
                        help="sending rates in Mbps (default: quick sweep)")
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per rate (default: 3 quick / 20 full)")
    parser.add_argument("--full", action="store_true",
                        help="use the paper's full sweep (5-100 Mbps x 20 reps)")
    parser.add_argument("--flows", type=int, default=None,
                        help="override workload-A flow count (default 1000)")
    parser.add_argument("--seed", type=int, default=None,
                        help="base RNG seed (default 0)")
    parser.add_argument("--scenario", metavar="SHAPE[:N]", default=None,
                        help="topology for the experiments: single, "
                             "line:N, or fanin:K (default: single)")
    parser.add_argument("--engine", metavar="MODE", default=None,
                        help="execution engine for the experiments: "
                             "'packet' (default; every packet is a "
                             "discrete event) or 'hybrid' (table-hit "
                             "traffic advances analytically; optional "
                             "burst gap as 'hybrid:SECONDS')")
    parser.add_argument("--shard", metavar="MODE", default=None,
                        help="sharded execution: 'per-switch' runs each "
                             "switch partition in its own event loop "
                             "(worker processes under the fork transport), "
                             "'per-switch:N' caps the worker count, 'off' "
                             "keeps the single serial loop (default)")
    parser.add_argument("--scale-flows", type=int, nargs="+", default=None,
                        metavar="N",
                        help="figscale flow counts (default: 1e3 1e4 1e5 "
                             "1e6)")
    parser.add_argument("--scale-packet-cap", type=int, default=None,
                        metavar="N",
                        help="largest figscale count also run on the "
                             "packet engine (default 10000)")
    parser.add_argument("--pool", metavar="SPEC", default=None,
                        help="share the switches' buffer units through one "
                             "pool; SPEC is policy[:key=value,...], e.g. "
                             "'dt:alpha=2,scope=port' or "
                             "'delay:target=0.008'")
    parser.add_argument("--fault", metavar="SPEC", default=None,
                        help="inject control-plane faults into the "
                             "benefits/mechanism experiments; SPEC is "
                             "comma-separated key=value, e.g. "
                             "'loss=0.01,jitter_down=0.002,"
                             "stall=1.0:1.5'")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of tables")
    parser.add_argument("--chart", action="store_true",
                        help="draw each figure as an ASCII chart too")
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write per-experiment CSVs into DIR")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes for sweep execution "
                             "(default: all cores)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every run instead of reusing the "
                             "on-disk result cache")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="result-cache directory (default: "
                             "~/.cache/repro-sdn-buffer, or $REPRO_CACHE_DIR)")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write flow-setup span traces: *.jsonl as "
                             "JSONL, anything else as Chrome trace_event "
                             "JSON (open in Perfetto)")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the merged metrics registry as "
                             "Prometheus exposition text")
    parser.add_argument("--trace-sample", type=int, default=None,
                        metavar="N",
                        help="trace every Nth flow (default 1 = all)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    return parser.parse_args(argv)


def _size_problem(args: argparse.Namespace) -> Optional[str]:
    """Why a count or rate option can size no run (``None`` if all can)."""
    for option, value in (("--flows", args.flows), ("--reps", args.reps),
                          ("--workers", args.workers),
                          ("--trace-sample", args.trace_sample)):
        if value is not None and value < 1:
            return f"{option} must be >= 1, got {value}"
    for count in args.scale_flows or ():
        if count < 1:
            return f"--scale-flows values must be >= 1, got {count}"
    for rate in args.rates or ():
        if not (math.isfinite(rate) and rate > 0):
            return f"--rates values must be finite and > 0, got {rate:g}"
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI body; returns a process exit code."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    # Subcommands peel off before the figure-target parser: ``profile``
    # runs an observed sweep, ``bench diff`` compares two perf records.
    if argv and argv[0] == "profile":
        from .profilecmd import profile_main
        return profile_main(argv[1:])
    if argv[:2] == ["bench", "diff"]:
        from .profilecmd import bench_diff_main
        return bench_diff_main(argv[2:])
    if argv and argv[0] == "shard-verify":
        from .shardcmd import shard_verify_main
        return shard_verify_main(argv[1:])
    args = _parse_args(argv)
    problem = _size_problem(args)
    if problem is not None:
        print(problem, file=sys.stderr)
        return 2
    unknown = [t for t in args.targets
               if t not in FIGURES and t not in _TARGET_EXPERIMENTS
               and t != "all"]
    if unknown:
        print(f"unknown targets: {', '.join(unknown)}", file=sys.stderr)
        return 2
    targets = list(_ALL if "all" in args.targets else args.targets)
    names = [name for name in _EXPERIMENTS
             if any(name in _experiments_of(t) for t in targets)]
    unread = _unread_options(args, targets, names)
    if unread is not None:
        print(unread, file=sys.stderr)
        return 2

    try:
        scenario, faults = _run_axes(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    from ..parallel import ResultCache
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    obs = None
    if args.trace_out is not None or args.metrics_out is not None:
        from ..obs import ObsCollector, ObsConfig
        obs = ObsCollector(ObsConfig(
            trace=args.trace_out is not None,
            trace_sample=(args.trace_sample
                          if args.trace_sample is not None else 1)))
    # Every runner keyword an option sets; ``None`` leaves the runner's
    # default in place.
    values = {
        "rates_mbps": args.rates, "repetitions": args.reps,
        "quick": not args.full, "n_flows": args.flows,
        "base_seed": args.seed if args.seed is not None else 0,
        "scenario": scenario, "faults": faults,
        "workers": (args.workers if args.workers is not None
                    else (os.cpu_count() or 1)),
        "cache": cache, "obs": obs,
        "flow_counts": (tuple(args.scale_flows)
                        if args.scale_flows is not None else None),
        "packet_cap": args.scale_packet_cap,
    }

    results: dict = {}
    for name in names:
        experiment = _EXPERIMENTS[name]
        print(f"# running {experiment.banner}...", file=sys.stderr)
        start = time.time()
        kwargs = {keyword: values[keyword]
                  for keyword in set(experiment.reads.values())
                  if keyword is not None and values[keyword] is not None}
        try:
            results[name] = globals()[experiment.runner](
                progress=experiment.progress, **kwargs)
        except Exception as exc:
            print(f"# {name} experiment failed: {exc}", file=sys.stderr)
            return 1
        print(f"# done in {time.time() - start:.1f}s", file=sys.stderr)
    sweeps = [data for data in results.values()
              if isinstance(data, ExperimentData)]
    if cache is not None and sweeps:
        print(f"# cache: {cache.stats()}", file=sys.stderr)
    if obs is not None and sweeps:
        print(f"# {obs.summary()}", file=sys.stderr)
        if args.trace_out is not None:
            path = obs.write_trace(args.trace_out)
            print(f"# wrote trace {path}", file=sys.stderr)
        if args.metrics_out is not None:
            path = obs.write_metrics(args.metrics_out)
            print(f"# wrote metrics {path}", file=sys.stderr)

    # Partial failure (a repetition exhausted its retry budget) is a
    # non-zero exit even though the surviving rows are still printed.
    exit_code = 0
    for data in sweeps:
        if data.report is not None and not data.report.ok:
            print(data.report.format(), file=sys.stderr)
            exit_code = 1

    if args.csv is not None:
        from .export import save_experiment_csv
        for data in sweeps:
            csv_path = save_experiment_csv(data, args.csv)
            print(f"# wrote {csv_path}", file=sys.stderr)

    if args.json:
        print(json.dumps(_json_payload(targets, results), indent=2))
        return exit_code

    blocks = []
    for target in targets:
        if target == "table1":
            blocks.append("Table I: experimental devices\n"
                          + format_table_1())
        elif target == "headline":
            blocks.append("Headline claims (paper vs measured)\n"
                          + format_headlines(headline_claims(
                              results.get("benefits"),
                              results.get("mechanism"))))
        elif target == "quoted":
            from .paper_data import compare_quoted, format_quoted
            blocks.append(
                "Every statistic the paper's text quotes, vs measured\n"
                + format_quoted(compare_quoted(results.get("benefits"),
                                               results.get("mechanism"))))
        elif target == "figscale":
            blocks.append(format_scale_experiment(results["scale"]))
        elif target in FIGURES:
            spec = FIGURES[target]
            data = results[spec.experiment]
            block = format_figure(spec, data)
            if args.chart:
                from ..metrics import render_chart
                from .figures import figure_series
                block += "\n" + render_chart(
                    list(data.rates), figure_series(spec, data),
                    y_label=spec.unit, x_label="sending rate (Mbps)")
            blocks.append(block)
        else:
            blocks.append(format_sweep_table(
                results[_TARGET_EXPERIMENTS[target][0]]))
    print("\n\n".join(blocks))
    return exit_code


def _run_axes(args: argparse.Namespace) -> tuple:
    """The scenario and faults that ``--scenario``, ``--pool``,
    ``--engine``, ``--shard`` and ``--fault`` spell (``None`` where
    unset); raises ``ValueError`` on a malformed or incompatible one."""
    from ..scenarios import SINGLE
    scenario = faults = None
    if args.scenario is not None:
        from ..scenarios import parse_scenario
        scenario = parse_scenario(args.scenario)
    if args.pool is not None:
        from ..bufferpool import parse_pool
        scenario = (scenario or SINGLE).with_pool(parse_pool(args.pool))
    if args.engine is not None:
        from ..scenarios import parse_engine
        scenario = (scenario or SINGLE).with_engine(
            parse_engine(args.engine))
    if args.shard is not None:
        from ..shard import parse_shard
        scenario = (scenario or SINGLE).with_shard(parse_shard(args.shard))
    if args.fault is not None:
        from ..faults import parse_fault
        faults = parse_fault(args.fault)
        if faults.is_null:
            faults = None
    return scenario, faults


#: Options another option turns off, as ``(option, switch, read only
#: with the switch set)``: ``--json`` prints no chart, ``--no-cache``
#: opens no cache directory, and only ``--trace-out`` builds the tracer
#: that ``--trace-sample`` samples for.
_SWITCHED_OFF = (("chart", "json", False), ("cache_dir", "no_cache", False),
                 ("trace_sample", "trace_out", True))


def _unread_options(args: argparse.Namespace, targets: Sequence[str],
                    names: Sequence[str]) -> Optional[str]:
    """Why an option set in ``args`` would go unread (``None`` if none).

    An option is unread when none of ``targets`` reads it, or when
    another option switches it off (:data:`_SWITCHED_OFF`).  ``names``
    are the experiments the targets run; a figure also reads
    ``--chart``.  An option counts as set when it differs from its
    default (``None``, or ``False`` for a switch).  ``--json`` shapes
    every target's output, so it is always read.
    """
    def is_set(option: str) -> bool:
        value = getattr(args, option)
        return value is not None and value is not False

    def flag(option: str) -> str:
        return f"--{option.replace('_', '-')}"

    read = {"json", "targets"}
    for name in names:
        read.update(_EXPERIMENTS[name].reads)
    if any(target in FIGURES for target in targets):
        read.add("chart")
    unread = [flag(option) for option in vars(args)
              if option not in read and is_set(option)]
    if unread:
        return (f"{', '.join(unread)}: read by none of the requested "
                f"targets ({' '.join(args.targets)})")
    switched_off = [
        f"{flag(option)}: read only with {flag(switch)}" if needs_switch
        else f"{flag(option)}: not read with {flag(switch)}"
        for option, switch, needs_switch in _SWITCHED_OFF
        if is_set(option) and is_set(switch) != needs_switch]
    return "; ".join(switched_off) or None


def _json_payload(targets, results) -> dict:
    """Machine-readable rendering of the requested targets.

    ``results`` maps each experiment the targets ran to its data.
    """
    from .figures import figure_series
    benefits, mechanism = results.get("benefits"), results.get("mechanism")
    payload: dict = {}
    for target in targets:
        if target == "table1":
            from .calibration import TABLE_I
            payload["table1"] = [list(row) for row in TABLE_I]
        elif target == "figscale":
            from .figures import SCALE_DEVIATION_TOLERANCE
            scale = results["scale"]
            payload["figscale"] = {
                "title": "Hybrid execution engine vs packet engine",
                "deviation_tolerance": SCALE_DEVIATION_TOLERANCE,
                "flow_counts": list(scale.flow_counts),
                "packet_cap": scale.packet_cap,
                "points": [
                    {"n_flows": p.n_flows, "engine": p.engine,
                     "seconds": p.seconds,
                     "flows_per_sec": p.flows_per_sec,
                     "completed": p.completed, "total": p.total,
                     "setup_delay_mean": p.setup_delay_mean,
                     "forwarding_delay_mean": p.forwarding_delay_mean,
                     "logical_packets": p.logical_packets}
                    for p in scale.points.values()],
                "speedup": {
                    str(n): scale.speedup_at(n)
                    for n in scale.flow_counts
                    if scale.has_packet_point(n)},
                "deviation": {
                    str(n): scale.deviation_at(n)
                    for n in scale.flow_counts
                    if scale.has_packet_point(n)},
            }
        elif target == "headline":
            payload["headline"] = [
                {"name": claim.name, "paper": claim.paper_value,
                 "measured": claim.measured_value,
                 "same_direction": claim.same_direction}
                for claim in headline_claims(benefits, mechanism)]
        elif target == "quoted":
            from .paper_data import compare_quoted
            payload["quoted"] = [
                {"figure_id": comparison.quoted.figure_id,
                 "label": comparison.quoted.label,
                 "statistic": comparison.quoted.statistic,
                 "paper": comparison.quoted.value,
                 "measured": comparison.measured,
                 "ratio": comparison.ratio}
                for comparison in compare_quoted(benefits, mechanism)]
        elif target in FIGURES:
            spec = FIGURES[target]
            data = results[spec.experiment]
            payload[target] = {
                "title": spec.title,
                "unit": spec.unit,
                "rates_mbps": list(data.rates),
                "series": figure_series(spec, data),
            }
        else:
            payload[target] = sweep_payload(
                results[_TARGET_EXPERIMENTS[target][0]])
    return payload


if __name__ == "__main__":  # pragma: no cover - module execution
    raise SystemExit(main())
