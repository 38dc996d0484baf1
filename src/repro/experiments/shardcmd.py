"""The ``shard-verify`` subcommand: sharded-vs-serial bit-identity.

Peeled off before the figure-target parser (like ``profile`` and
``bench diff``): ``repro-sdn-buffer shard-verify --scenario line:2``
runs the same repetition serial and sharded, and exits 1 on any
divergence in event ordering, metrics, or cache keying.  Options no run
can use exit 2 with a one-line message before anything is built.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence


def shard_verify_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-sdn-buffer shard-verify`` body; returns an exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-sdn-buffer shard-verify",
        description="Assert sharded execution is bit-identical to serial.")
    parser.add_argument("--scenario", metavar="SHAPE[:N]", default="line:2",
                        help="scenario to verify (default line:2)")
    parser.add_argument("--shard", metavar="MODE", default="per-switch",
                        help="shard spec to verify, e.g. per-switch or "
                             "per-switch:2 (default per-switch)")
    parser.add_argument("--flows", type=int, default=30,
                        help="flows in the probe workload (default 30)")
    parser.add_argument("--rate", type=float, default=4.0,
                        help="probe workload rate in Mbps (default 4)")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload / testbed seed (default 7)")
    parser.add_argument("--transport", default="inline",
                        choices=("inline", "fork", "auto"),
                        help="shard transport to exercise (default inline: "
                             "deterministic and debuggable; fork exercises "
                             "the real worker plumbing)")
    parser.add_argument("--loss", type=float, default=None, metavar="P",
                        help="verify under control-plane loss probability "
                             "P (exercises the Algorithm-1 re-request "
                             "path across the shard seam)")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    args = parser.parse_args(argv)

    from ..scenarios import parse_scenario
    from ..shard import parse_shard, verify_shard_equivalence
    try:
        if args.flows < 1:
            raise ValueError(f"--flows must be >= 1, got {args.flows}")
        if not (math.isfinite(args.rate) and args.rate > 0):
            raise ValueError(
                f"--rate must be finite and > 0, got {args.rate:g}")
        if args.loss is not None and not 0.0 <= args.loss <= 1.0:
            raise ValueError(
                f"--loss must be within [0, 1], got {args.loss:g}")
        scenario = parse_scenario(args.scenario)
        shard = parse_shard(args.shard)
        if not shard.is_active:
            raise ValueError("shard-verify needs an active shard spec; "
                             "got 'off'")
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    faults = None
    if args.loss is not None:
        from ..faults import loss_fault
        faults = loss_fault(args.loss)

    report = verify_shard_equivalence(
        scenario, shard=shard, n_flows=args.flows, rate_mbps=args.rate,
        seed=args.seed, transport=args.transport, faults=faults)
    if args.json:
        print(json.dumps({
            "scenario": report.scenario,
            "n_shards": report.n_shards,
            "transport": report.transport,
            "ok": report.ok,
            "rounds": report.rounds,
            "messages": report.messages,
            "horizon_stalls": report.horizon_stalls,
            "events_compared": sum(report.event_counts.values()),
            "tokens_distinct": report.serial_token != report.shard_token,
            "mismatches": report.mismatches,
        }, indent=2))
    else:
        print(report.summary())
    return 0 if report.ok else 1
