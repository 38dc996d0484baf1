"""What the benchmark measures, and why: workloads and layers.

``BENCHMARK.json`` at the repository root holds the contract the
benchmark runner is held to: every metric's name, unit, direction and
bound.  This module holds what that file cannot: for every workload the
layers it loads and leaves idle and the ROADMAP item it serves, and for
every per-layer metric the end-to-end metric and workload it should
move.  The tests in ``perfbench/tests`` keep the two in step.

The end-to-end metrics, each a median over the passes of one run.
Times are reference seconds: host seconds scaled by the host-speed
probe timed around them (``speed.py``).

* ``wall_s`` - seconds of one timed (cold) pass;
* ``setup_s`` - fresh-interpreter import time plus input generation,
  i.e. everything before the timed pass;
* ``flows_per_s`` - simulated flows completed per second of a cold
  pass;
* ``warm_wall_s`` - the same pass repeated on the same inputs in the
  same process: on ``paper_all`` every repetition is a result-cache
  hit; elsewhere only the in-process key caches are warm;
* ``peak_rss_mb`` - peak resident memory of the benchmark process or
  any worker it waited for.

``fail_ratio`` is not among them: it is 0 on a healthy run, so it
travels as the result line's ``failed`` / ``attempted`` pair and is
printed in the human table only.
"""

from __future__ import annotations

WORKLOADS = {
    "paper_all": {
        "runs": "the quick `repro-sdn-buffer all --json` grid (Table I, "
                "Figs 2-13, figpath, figresilience, figsharing, headline, "
                "quoted) inline (one worker) into an empty result cache, "
                "then the same grid five times against the filled cache; "
                "the traced run's reference iteration runs it on a fork "
                "pool of nproc workers for parallel.efficiency",
        "sizing": "--reps 1 and --flows 150: 98 packet-engine repetitions "
                  "(the quick grid's 294 at 3 repetitions and 1000 "
                  "workload-A flows take 33-40 s cold at 2 workers, 48.5 s "
                  "at 1, and 0.9 s warm), so a 35 s run holds four or more "
                  "inline cold passes",
        "loads": ["parallel", "parallel.cache", "scenarios", "simkit",
                  "switchsim", "controllersim", "netsim", "core",
                  "faults", "bufferpool", "metrics", "trafficgen",
                  "experiments"],
        "idle": ["engine", "shard",
                 "openflow.flowtable eviction (runs hold <= 1000 flows)"],
        "roadmap": "item 1 (wall time of the reproduction itself)",
        "open_loop": "pktgen sends on a fixed schedule at each grid rate "
                     "(5-95 Mbps quick sweep)",
        "seed": "--seed n selects grid base seed n mod 16; each of the "
                "16 has a pinned output digest",
    },
    "scale_hybrid": {
        "runs": "figscale's hybrid point: one serial run_once of the "
                "figscale flow-train workload under "
                "SINGLE.with_engine(HYBRID), flow-buffer-256, no cache",
        "sizing": "5000 flows per pass (ROADMAP names 10^5: 40-42 s run "
                  "plus 3.3-4.2 s build on a 2-core host; a run needs a "
                  "dozen passes for a steady median); the offered load, and with it the "
                  "live flow-table size, does not depend on the count",
        "loads": ["engine", "switchsim", "controllersim", "netsim",
                  "simkit", "metrics", "trafficgen"],
        "idle": ["parallel", "parallel.cache", "shard", "faults",
                 "bufferpool", "openflow.flowtable eviction"],
        "roadmap": "item 4 (cut the per-flow miss path)",
        "open_loop": "125 flows/s of 64-packet trains paced at 4 Mbps "
                     "(about 8000 pps, rho ~0.64 on the data link)",
        "seed": "--seed n picks the trains' UDP destination port and the "
                "run seed; the schedule is fixed, so the delays are "
                "pinned once",
    },
    "line4_churn": {
        "runs": "one line:4 repetition of 1000 single-packet flows at "
                "40 Mbps over 5 ms cables, sharded per-switch:2 over the "
                "inline transport (both shards in the benchmark process: "
                "fork workers on a 2-vCPU shared host spread past the "
                "bound), with flow_table_capacity 512",
        "sizing": "capacity 512 against 1000 flows live within one idle "
                  "timeout gives 488 evictions per switch, each a scan of "
                  "a full 512-entry table; 1000 rather than 1600 flows so "
                  "that a run holds a dozen passes for a steady median",
        "loads": ["shard", "openflow.flowtable eviction", "switchsim",
                  "controllersim", "netsim", "simkit", "metrics"],
        "idle": ["parallel", "parallel.cache", "engine", "faults",
                 "bufferpool"],
        "roadmap": "item 2 (keep or cut repro.shard); the churn workload "
                   "ROADMAP deferred until item 1 exists",
        "open_loop": "pktgen sends 1000 single-packet flows at 40 Mbps",
        "seed": "--seed n seeds the pktgen jitter and the run",
        "full_table_blowup": {
            "note": "measured on a 2-core host, Python 3.11.7; once the "
                    "table is full FlowTable._evict_one scans every "
                    "entry on each insert",
            "1600 flows, capacity 512": "2.5 s serial, 2.0 s sharded",
            "1600 flows, capacity 4096": "about 1.6 s either way",
            "6400 flows, default calibration": "60-69 s serial",
            "3200 flows, default calibration": "2.6 s serial",
        },
    },
}

_PAPER = ("paper_all",)
_SCALE = ("scale_hybrid",)
_CHURN = ("line4_churn",)
_SIM = ("paper_all", "scale_hybrid", "line4_churn")
_MISS = ("wall_s", "flows_per_s")

#: Per-layer metric -> (end-to-end metrics it should move, workloads on
#: which it should move them), in ``BENCHMARK.json`` order.  ``*_s`` are
#: self times in the traced pass; counts are exact.
LAYERS = {
    "scenarios.build_s": (("wall_s",), _PAPER),
    "scenarios.builds": (("wall_s",), _PAPER),
    "simkit.run_s": (("wall_s",), _SIM),
    "simkit.events": (("wall_s",), _SIM),
    "simkit.ns_per_event": (("wall_s",), _SIM),
    "switchsim.cpu_s": (_MISS, _SCALE + _PAPER),
    "switchsim.bus_s": (_MISS, _SCALE + _PAPER),
    "switchsim.agent_s": (_MISS, _SCALE + _PAPER),
    "switchsim.datapath_s": (_MISS, _SCALE + _PAPER),
    "switchsim.apply_s": (_MISS, _SCALE + _PAPER),
    "switchsim.packet_ins": (_MISS, _SCALE + _PAPER),
    "switchsim.miss_ratio": (_MISS, _SCALE + _PAPER),
    "netsim.link_s": (_MISS, _SCALE + _PAPER),
    "controllersim.cpu_s": (_MISS, _SCALE + _PAPER),
    "controllersim.app_s": (_MISS, _SCALE + _PAPER),
    "core.buffer_s": (_MISS, _SCALE + _PAPER),
    "openflow.flowtable.insert_s": (("wall_s",), _CHURN),
    "openflow.flowtable.evictions": (("wall_s",), _CHURN),
    "openflow.pktbuffer.stores": (("wall_s",), _PAPER),
    "faults.injected": (("wall_s",), _PAPER),
    "faults.retries": (("wall_s",), _PAPER),
    "bufferpool.pool_s": (("wall_s",), _PAPER),
    "bufferpool.rejections": (("wall_s",), _PAPER),
    "metrics.snapshot_s": (("wall_s",), _PAPER),
    "metrics.collect_s": (("wall_s",), _PAPER),
    "trafficgen.generate_s": (("setup_s",), _SCALE),
    "trafficgen.pktgen_s": (("setup_s",), _SCALE),
    "engine.hybrid_s": (_MISS, _SCALE),
    "engine.segments": (_MISS, _SCALE),
    "engine.discrete_share": (_MISS, _SCALE),
    "parallel.task_s": (("wall_s",), _PAPER),
    "parallel.efficiency": (("wall_s",), _PAPER),
    "parallel.overhead_s": (("wall_s",), _PAPER),
    "parallel.cache.put_s": (("wall_s",), _PAPER),
    "parallel.cache.bytes": (("wall_s",), _PAPER),
    "parallel.cache.get_s": (("warm_wall_s",), _PAPER),
    "parallel.cache.hits": (("warm_wall_s",), _PAPER),
    "shard.rounds": (("wall_s",), _CHURN),
    "shard.rounds_coalesced": (("wall_s",), _CHURN),
    "shard.messages": (("wall_s",), _CHURN),
    "shard.bytes": (("wall_s",), _CHURN),
    "shard.codec_s": (("wall_s",), _CHURN),
    "shard.rounds_wall_s": (("wall_s",), _CHURN),
    "shard.serial_ref_s": (("wall_s",), _CHURN),
    "shard.speedup": (("wall_s",), _CHURN),
    "experiments.aggregate_s": (("wall_s", "warm_wall_s"), _PAPER),
    "experiments.report_s": (("wall_s", "warm_wall_s"), _PAPER),
    "obs.traced_ratio": (("wall_s", "warm_wall_s"), _PAPER),
    "unattributed_s": (("wall_s", "warm_wall_s"), _PAPER),
}
