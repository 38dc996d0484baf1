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
from typing import Optional, Sequence

from .. import __version__
from .calibration import format_table_1
from .figures import (FIGURES, run_benefits_experiment,
                      run_figscale_experiment, run_figsharing_experiment,
                      run_mechanism_experiment, run_path_experiment,
                      run_resilience_experiment)
from .report import (format_figure, format_headlines,
                     format_path_experiment, format_resilience_experiment,
                     format_scale_experiment, format_sharing_experiment,
                     headline_claims)

#: ``figscale`` is deliberately not part of ``all``: its top flow count
#: is a wall-clock study (minutes at 10^6 flows), not a paper figure.
_SPECIAL = ("table1", "headline", "quoted", "figpath", "figresilience",
            "figsharing", "figscale", "all")


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-sdn-buffer",
        description="Regenerate tables/figures of 'Adopting SDN Switch "
                    "Buffer' (ICDCS'17 / TCC'21) on the simulated testbed.")
    parser.add_argument("targets", nargs="+",
                        help=f"figure ids ({', '.join(FIGURES)}), or one of "
                             f"{', '.join(_SPECIAL)}")
    parser.add_argument("--rates", type=float, nargs="+", default=None,
                        help="sending rates in Mbps (default: quick sweep)")
    parser.add_argument("--reps", type=int, default=None,
                        help="repetitions per rate (default: 3 quick / 20 full)")
    parser.add_argument("--full", action="store_true",
                        help="use the paper's full sweep (5-100 Mbps x 20 reps)")
    parser.add_argument("--flows", type=int, default=None,
                        help="override workload-A flow count (default 1000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed")
    parser.add_argument("--scenario", metavar="SHAPE[:N]", default=None,
                        help="topology for the experiments: single, "
                             "line:N, or fanin:K (default: single)")
    parser.add_argument("--engine", metavar="MODE", default=None,
                        help="execution engine for the experiments: "
                             "'packet' (default; every packet is a "
                             "discrete event) or 'hybrid' (table-hit "
                             "traffic advances analytically; optional "
                             "burst gap as 'hybrid:SECONDS').  figscale "
                             "always runs both engines and ignores this")
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
                             "'delay:target=0.008' (figsharing sweeps its "
                             "own pool grid and ignores this)")
    parser.add_argument("--fault", metavar="SPEC", default=None,
                        help="inject control-plane faults into the "
                             "benefits/mechanism experiments; SPEC is "
                             "comma-separated key=value, e.g. "
                             "'loss=0.01,jitter_down=0.002,"
                             "stall=1.0:1.5' (figresilience sweeps its "
                             "own loss grid and ignores this)")
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
    parser.add_argument("--trace-sample", type=int, default=1, metavar="N",
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
    targets = list(args.targets)
    unknown = [t for t in targets if t not in FIGURES and t not in _SPECIAL]
    if unknown:
        print(f"unknown targets: {', '.join(unknown)}", file=sys.stderr)
        return 2

    if "all" in targets:
        targets = (["table1"] + list(FIGURES)
                   + ["figpath", "figresilience", "figsharing",
                      "headline", "quoted"])

    scenario = None
    if args.scenario is not None:
        from ..scenarios import parse_scenario
        try:
            scenario = parse_scenario(args.scenario)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    if args.pool is not None:
        from ..bufferpool import parse_pool
        from ..scenarios import single_scenario
        try:
            pool_spec = parse_pool(args.pool)
            scenario = (scenario if scenario is not None
                        else single_scenario()).with_pool(pool_spec)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    if args.engine is not None:
        from ..scenarios import parse_engine, single_scenario
        try:
            engine = parse_engine(args.engine)
            scenario = (scenario if scenario is not None
                        else single_scenario()).with_engine(engine)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    if args.shard is not None:
        from ..scenarios import single_scenario
        from ..shard import parse_shard
        try:
            shard = parse_shard(args.shard)
            scenario = (scenario if scenario is not None
                        else single_scenario()).with_shard(shard)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    faults = None
    if args.fault is not None:
        from ..faults import parse_fault
        try:
            faults = parse_fault(args.fault)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if faults.is_null:
            faults = None

    quick = not args.full
    need_benefits = any(
        t in ("headline", "quoted")
        or (t in FIGURES and FIGURES[t].experiment == "benefits")
        for t in targets)
    need_mechanism = any(
        t in ("headline", "quoted")
        or (t in FIGURES and FIGURES[t].experiment == "mechanism")
        for t in targets)
    need_path = "figpath" in targets
    need_resilience = "figresilience" in targets
    need_sharing = "figsharing" in targets
    need_scale = "figscale" in targets

    from ..parallel import ResultCache
    workers = (args.workers if args.workers is not None
               else (os.cpu_count() or 1))
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    obs = None
    if args.trace_out is not None or args.metrics_out is not None:
        from ..obs import ObsCollector, ObsConfig
        obs = ObsCollector(ObsConfig(trace=args.trace_out is not None,
                                     trace_sample=args.trace_sample))

    benefits = mechanism = path_data = resilience = sharing = None
    scale = None
    any_experiment = (need_benefits or need_mechanism or need_path
                      or need_resilience or need_sharing)
    kwargs = dict(rates_mbps=args.rates, repetitions=args.reps,
                  quick=quick, base_seed=args.seed, workers=workers,
                  cache=cache, progress=True, obs=obs)
    if need_benefits:
        print("# running benefits experiment (workload A)...",
              file=sys.stderr)
        start = time.time()
        a_kwargs = dict(kwargs)
        if args.flows is not None:
            a_kwargs["n_flows"] = args.flows
        try:
            benefits = run_benefits_experiment(scenario=scenario,
                                               faults=faults, **a_kwargs)
        except Exception as exc:
            print(f"# benefits experiment failed: {exc}", file=sys.stderr)
            return 1
        print(f"# done in {time.time() - start:.1f}s", file=sys.stderr)
    if need_mechanism:
        print("# running mechanism experiment (workload B)...",
              file=sys.stderr)
        start = time.time()
        try:
            mechanism = run_mechanism_experiment(scenario=scenario,
                                                 faults=faults, **kwargs)
        except Exception as exc:
            print(f"# mechanism experiment failed: {exc}", file=sys.stderr)
            return 1
        print(f"# done in {time.time() - start:.1f}s", file=sys.stderr)
    if need_path:
        # The path experiment sweeps its own line lengths; --scenario
        # does not apply to it.
        print("# running path-length experiment (workload B over "
              "line topologies)...", file=sys.stderr)
        start = time.time()
        try:
            path_data = run_path_experiment(**kwargs)
        except Exception as exc:
            print(f"# path experiment failed: {exc}", file=sys.stderr)
            return 1
        print(f"# done in {time.time() - start:.1f}s", file=sys.stderr)
    if need_resilience:
        # figresilience sweeps its own loss grid at one fixed sending
        # rate; --rates/--scenario/--fault do not apply to it.
        print("# running resilience experiment (workload A over a "
              "control-channel loss sweep)...", file=sys.stderr)
        start = time.time()
        r_kwargs = dict(repetitions=args.reps, quick=quick,
                        base_seed=args.seed, workers=workers,
                        cache=cache, progress=True, obs=obs)
        if args.flows is not None:
            r_kwargs["n_flows"] = args.flows
        try:
            resilience = run_resilience_experiment(**r_kwargs)
        except Exception as exc:
            print(f"# resilience experiment failed: {exc}",
                  file=sys.stderr)
            return 1
        print(f"# done in {time.time() - start:.1f}s", file=sys.stderr)
    if need_sharing:
        # figsharing sweeps its own pool-policy and loss grids on a
        # fanin scenario; --rates/--scenario/--pool/--fault do not
        # apply to it.
        print("# running buffer-sharing experiment (workload A over "
              "pool policies on fanin)...", file=sys.stderr)
        start = time.time()
        s_kwargs = dict(repetitions=args.reps, quick=quick,
                        base_seed=args.seed, workers=workers,
                        cache=cache, progress=True, obs=obs)
        if args.flows is not None:
            s_kwargs["n_flows"] = args.flows
        try:
            sharing = run_figsharing_experiment(**s_kwargs)
        except Exception as exc:
            print(f"# sharing experiment failed: {exc}", file=sys.stderr)
            return 1
        print(f"# done in {time.time() - start:.1f}s", file=sys.stderr)
    if need_scale:
        # figscale times serial hybrid-vs-packet runs on its own
        # workload grid; --rates/--scenario/--engine/--workers/--cache
        # do not apply (wall time is the measured quantity).
        print("# running scale experiment (hybrid vs packet engine)...",
              file=sys.stderr)
        start = time.time()
        sc_kwargs: dict = {}
        if args.scale_flows is not None:
            sc_kwargs["flow_counts"] = tuple(args.scale_flows)
        if args.scale_packet_cap is not None:
            sc_kwargs["packet_cap"] = args.scale_packet_cap
        try:
            scale = run_figscale_experiment(
                progress=lambda line: print(f"# {line}", file=sys.stderr),
                **sc_kwargs)
        except Exception as exc:
            print(f"# scale experiment failed: {exc}", file=sys.stderr)
            return 1
        print(f"# done in {time.time() - start:.1f}s", file=sys.stderr)
    if cache is not None and any_experiment:
        print(f"# cache: {cache.stats()}", file=sys.stderr)
    if obs is not None and any_experiment:
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
    for data in (benefits, mechanism, path_data, resilience, sharing):
        if data is not None and data.report is not None \
                and not data.report.ok:
            print(data.report.format(), file=sys.stderr)
            exit_code = 1

    if args.csv is not None:
        from .export import (save_experiment_csv, save_resilience_csv,
                             save_sharing_csv)
        for data in (benefits, mechanism):
            if data is not None:
                csv_path = save_experiment_csv(data, args.csv)
                print(f"# wrote {csv_path}", file=sys.stderr)
        if resilience is not None:
            csv_path = save_resilience_csv(resilience, args.csv)
            print(f"# wrote {csv_path}", file=sys.stderr)
        if sharing is not None:
            csv_path = save_sharing_csv(sharing, args.csv)
            print(f"# wrote {csv_path}", file=sys.stderr)

    if args.json:
        print(json.dumps(_json_payload(targets, benefits, mechanism,
                                       path_data, resilience, sharing,
                                       scale),
                         indent=2))
        return exit_code

    blocks = []
    for target in targets:
        if target == "table1":
            blocks.append("Table I: experimental devices\n"
                          + format_table_1())
        elif target == "headline":
            blocks.append("Headline claims (paper vs measured)\n"
                          + format_headlines(
                              headline_claims(benefits, mechanism)))
        elif target == "quoted":
            from .paper_data import compare_quoted, format_quoted
            blocks.append(
                "Every statistic the paper's text quotes, vs measured\n"
                + format_quoted(compare_quoted(benefits, mechanism)))
        elif target == "figpath":
            assert path_data is not None
            blocks.append(format_path_experiment(path_data))
        elif target == "figresilience":
            assert resilience is not None
            blocks.append(format_resilience_experiment(resilience))
        elif target == "figsharing":
            assert sharing is not None
            blocks.append(format_sharing_experiment(sharing))
        elif target == "figscale":
            assert scale is not None
            blocks.append(format_scale_experiment(scale))
        else:
            spec = FIGURES[target]
            data = benefits if spec.experiment == "benefits" else mechanism
            assert data is not None
            block = format_figure(spec, data)
            if args.chart:
                from ..metrics import render_chart
                from .figures import figure_series
                block += "\n" + render_chart(
                    list(data.rates), figure_series(spec, data),
                    y_label=spec.unit, x_label="sending rate (Mbps)")
            blocks.append(block)
    print("\n\n".join(blocks))
    return exit_code


def _json_payload(targets, benefits, mechanism, path=None,
                  resilience=None, sharing=None, scale=None) -> dict:
    """Machine-readable rendering of the requested targets."""
    from .figures import figure_series
    payload: dict = {}
    for target in targets:
        if target == "table1":
            from .calibration import TABLE_I
            payload["table1"] = [list(row) for row in TABLE_I]
        elif target == "figresilience":
            from .report import RESILIENCE_METRICS
            assert resilience is not None
            payload["figresilience"] = {
                "title": "Flow setup vs control-channel loss",
                "rate_mbps": resilience.rate_mbps,
                "loss_rates": list(resilience.loss_rates),
                "series": {
                    name: {label: resilience.series_vs_loss(label, getter)
                           for label in resilience.labels}
                    for name, _, getter in RESILIENCE_METRICS},
            }
        elif target == "figsharing":
            from .report import SHARING_METRICS
            assert sharing is not None
            payload["figsharing"] = {
                "title": "Shared-pool admission under fanin contention",
                "rate_mbps": sharing.rate_mbps,
                "loss_rates": list(sharing.loss_rates),
                "pools": list(sharing.pool_names),
                "series": {
                    name: {
                        label: {pool: sharing.series_vs_loss(label, pool,
                                                             getter)
                                for pool in sharing.pool_names}
                        for label in sharing.labels}
                    for name, _, getter in SHARING_METRICS},
            }
        elif target == "figscale":
            from .figures import SCALE_DEVIATION_TOLERANCE
            assert scale is not None
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
        elif target == "figpath":
            from .report import PATH_METRICS
            assert path is not None
            rate = max(path.rates)
            payload["figpath"] = {
                "title": "Control overhead vs path length",
                "rate_mbps": rate,
                "lengths": list(path.lengths),
                "series": {
                    name: {label: path.series_vs_length(label, getter, rate)
                           for label in path.labels}
                    for name, _, getter in PATH_METRICS},
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
        else:
            spec = FIGURES[target]
            data = benefits if spec.experiment == "benefits" else mechanism
            assert data is not None
            payload[target] = {
                "title": spec.title,
                "unit": spec.unit,
                "rates_mbps": list(data.rates),
                "series": figure_series(spec, data),
            }
    return payload


if __name__ == "__main__":  # pragma: no cover - module execution
    raise SystemExit(main())
