"""The three benchmark workloads: inputs from a seed, timed passes, checks.

Each workload turns ``--seed`` into the program's inputs
(:meth:`inputs`), runs one *iteration* — a cold pass and a warm pass
over those inputs (:meth:`iteration`) — and checks every pass's output
(:meth:`check`).  Every workload reports every end-to-end metric, so
``scale_hybrid`` and ``line4_churn`` repeat their pass in-process as
the warm one; only on ``paper_all`` is it a result-cache hit.  Every
pass runs in the benchmark process and is timed by :func:`speed.timed`,
which probes the host's speed around and, in the untraced runs, inside
it; only the traced run's reference passes use worker processes.
The program is always reached through module attributes looked up at
call time, so a :class:`~tracer.Tracer` installed around a pass sees
every call.

Why these three, and what each loads and leaves idle, is recorded in
:data:`catalog.WORKLOADS`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import pickle
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from speed import timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout (result caches, records, traces).
OUT = ROOT / ".perfbench_out"
PINNED = HERE / "pinned.json"


@dataclass
class Pass:
    """One timed pass over a workload's inputs."""

    wall: float
    #: The host's slowdown while the pass ran (:func:`speed.timed`).
    slowdown: float
    flows: int
    reps: int
    #: What :meth:`check` compares (a digest or a tuple of values).
    output: Any
    warm: bool = False
    #: What :meth:`check` holds ``output`` to: the cold pass's output a
    #: warm pass must repeat, or the seed whose reference applies.
    expected: Any = None
    error: Optional[str] = None


def load_pinned() -> dict:
    with open(PINNED) as handle:
        return json.load(handle)


def _digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _workload_digest(inputs) -> str:
    """Digest of generated inputs: the run seed and every send."""
    workload, seed = inputs
    return _digest((seed, [(t, p.five_tuple) for t, p in workload.entries]))


class PaperAll:
    """The quick ``repro-sdn-buffer all --json`` grid, cold then warm.

    The timed passes run the sweep inline (one worker): the host-speed
    probes run in this process and cannot follow work in a pool.  The
    traced run's reference iteration runs on a fork pool of ``nproc``
    workers, for the parallel layer's efficiency and overhead.
    """

    name = "paper_all"
    modules = ("repro.experiments.cli", "repro.parallel")
    #: Workload-A flows per repetition (``--flows``) and repetitions per
    #: grid point (``--reps``); see catalog for the sizing.
    FLOWS = 150
    REPS = 1
    REPETITIONS = 98
    #: Cache-hit passes per cold pass: each is short, so several are
    #: timed to steady their median.
    WARM_PASSES = 5
    #: ``--seed n`` runs grid base seed ``n % PINNED_SEEDS``.
    PINNED_SEEDS = 16

    def __init__(self):
        self.workers = os.cpu_count() or 1
        self.completed_flows: Optional[int] = None
        self._dirs = 0

    def base_seed(self, seed: int) -> int:
        return seed % self.PINNED_SEEDS

    def inputs(self, seed: int) -> List[str]:
        return ["all", "--json", "--flows", str(self.FLOWS),
                "--reps", str(self.REPS), "--seed", str(self.base_seed(seed))]

    def input_digest(self, seed: int) -> str:
        return _digest(self.inputs(seed))

    def _cli(self, argv: List[str]):
        from repro.experiments import cli
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code, wall, slowdown = timed(cli.main, argv)
        return wall, slowdown, code, out.getvalue()

    def iteration(self, argv: List[str], inline: bool = True,
                  workers: int = 1) -> List[Pass]:
        self._dirs += 1
        cache = OUT / f"cache-{os.getpid()}-{self._dirs}"
        shutil.rmtree(cache, ignore_errors=True)
        cache.mkdir(parents=True)
        full = argv + ["--workers", str(workers), "--cache-dir", str(cache)]
        try:
            wall, slowdown, code, text = self._cli(full)
            if self.completed_flows is None:
                self.completed_flows = self._count_flows(cache)
            passes = [Pass(wall, slowdown, self.completed_flows,
                           self.REPETITIONS,
                           _digest(text),
                           expected=argv[argv.index("--seed") + 1],
                           error=None if code == 0 else f"exit code {code}")]
            for _ in range(self.WARM_PASSES):
                wall, slowdown, code, text = self._cli(full)
                passes.append(Pass(
                    wall, slowdown, self.completed_flows,
                    self.REPETITIONS,
                    _digest(text), warm=True, expected=passes[0].output,
                    error=None if code == 0 else f"exit code {code}"))
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return passes

    @staticmethod
    def _count_flows(cache: Path) -> int:
        """Completed flows over every repetition the cold pass stored."""
        total = 0
        for path in cache.rglob("*.pkl"):
            with open(path, "rb") as handle:
                total += pickle.load(handle).completed_flows
        return total

    def check(self, p: Pass) -> Optional[str]:
        if p.error is not None:
            return p.error
        if p.warm:
            return (None if p.output == p.expected
                    else "warm output differs from the cold output")
        pinned = load_pinned()["paper_all"]
        if pinned["argv"] != self.inputs(0)[:-2]:
            return f"no digests pinned for {' '.join(self.inputs(0)[:-2])}"
        want = pinned["sha256"].get(p.expected)
        if p.output != want:
            return f"output digest {p.output[:12]} != pinned {str(want)[:12]}"
        return None

    def reference(self, seed: int) -> Dict[str, Any]:
        """Untraced parallel iteration: the wall the efficiency is read on."""
        passes = self.iteration(self.inputs(seed), workers=self.workers)
        return {"passes": passes, "parallel_wall": passes[0].wall}

    def finish_layers(self, layers: Dict[str, float], ref: Dict[str, Any],
                      base: List[Pass]) -> None:
        ratio = layers["obs.traced_ratio"]
        task = layers["parallel.task_s"] / ratio
        capacity = ref["parallel_wall"] * self.workers
        layers["parallel.efficiency"] = task / capacity
        layers["parallel.overhead_s"] = capacity - task


class ScaleHybrid:
    """figscale's hybrid point: one serial run of the flow-train workload."""

    name = "scale_hybrid"
    modules = ("repro.experiments.runner", "repro.engine",
               "repro.trafficgen")
    FLOWS = 5_000

    def __init__(self, flows: int = FLOWS):
        self.flows = flows

    def inputs(self, seed: int):
        """The figscale workload; the seed picks the destination port."""
        import repro.trafficgen
        from repro.experiments import figures
        from repro.simkit import mbps
        workload = repro.trafficgen.flow_train_flows(
            mbps(figures.SCALE_PACING_MBPS), n_flows=self.flows,
            packets_per_flow=figures.SCALE_PACKETS_PER_FLOW,
            flow_rate=figures.SCALE_FLOW_RATE,
            dst_port=1024 + seed % 60000)
        return workload, seed

    def input_digest(self, seed: int) -> str:
        return _workload_digest(self.inputs(seed))

    def _pass(self, inputs, warm: bool) -> Pass:
        import repro.experiments.runner
        from repro.core import flow_buffer_256
        from repro.engine import HYBRID
        from repro.scenarios import SINGLE
        workload, seed = inputs
        metrics, wall, slowdown = timed(
            repro.experiments.runner.run_once, flow_buffer_256(), workload,
            seed=seed, scenario=SINGLE.with_engine(HYBRID))
        setup, fwd = metrics.setup_delays, metrics.forwarding_delays
        output = (metrics.completed_flows, metrics.total_flows,
                  sum(setup) / len(setup) if setup else None,
                  sum(fwd) / len(fwd) if fwd else None)
        return Pass(wall, slowdown, metrics.completed_flows, 1, output,
                    warm=warm)

    def iteration(self, inputs, inline: bool = False) -> List[Pass]:
        return [self._pass(inputs, False), self._pass(inputs, True)]

    def check(self, p: Pass) -> Optional[str]:
        completed, total, setup, fwd = p.output
        if completed != total or total != self.flows:
            return f"completed {completed} of {total} flows"
        pinned = load_pinned()["scale_hybrid"].get(str(self.flows))
        if pinned is None:
            return f"no delays pinned for {self.flows} flows"
        if [setup, fwd] != [pinned["setup_delay_mean"],
                            pinned["forwarding_delay_mean"]]:
            return (f"mean delays {setup!r}/{fwd!r} != pinned "
                    f"{pinned['setup_delay_mean']!r}/"
                    f"{pinned['forwarding_delay_mean']!r}")
        return None

    def reference(self, seed: int) -> Dict[str, Any]:
        return {"passes": []}

    def finish_layers(self, layers, ref, base) -> None:
        pass


class LineChurn:
    """Sharded line:4 with a flow table smaller than the live rule set.

    The shards run inline, in this process: on a host of a few shared
    cores, worker processes would measure the scheduler rather than the
    shard layer's own work (partitioning, rounds, the codec).
    """

    name = "line4_churn"
    modules = ("repro.experiments.runner", "repro.shard",
               "repro.trafficgen")
    FLOWS = 1000
    CAPACITY = 512
    RATE_MBPS = 40.0
    #: 5 ms cables: the lookahead the shard coordinator works with.
    PROPAGATION_DELAY = 5e-3
    SHARD = "per-switch:2"

    def __init__(self, flows: int = FLOWS, capacity: int = CAPACITY):
        self.flows = flows
        self.capacity = capacity
        self._reference: Dict[int, str] = {}

    def calibration(self):
        from repro.experiments.calibration import default_calibration
        cal = default_calibration()
        return dataclasses.replace(
            cal, link_propagation_delay=self.PROPAGATION_DELAY,
            switch=dataclasses.replace(
                cal.switch, flow_table_capacity=self.capacity))

    def scenario(self, sharded: bool):
        from repro.scenarios import parse_scenario
        from repro.shard import parse_shard
        return parse_scenario("line:4").with_shard(
            parse_shard(self.SHARD if sharded else "off"))

    def inputs(self, seed: int):
        import repro.trafficgen
        from repro.simkit import RandomStreams, mbps
        workload = repro.trafficgen.single_packet_flows(
            mbps(self.RATE_MBPS), n_flows=self.flows,
            rng=RandomStreams(seed))
        return workload, seed

    def input_digest(self, seed: int) -> str:
        return _workload_digest(self.inputs(seed))

    def sharded(self, inputs):
        """One sharded repetition over the inline transport."""
        import repro.shard
        from repro.core import BufferConfig
        workload, seed = inputs
        return repro.shard.execute_sharded(
            BufferConfig(), workload, calibration=self.calibration(),
            seed=seed, scenario=self.scenario(True), transport="inline")

    def run(self, inputs, sharded: bool):
        """``(metrics, host seconds, slowdown)`` of one repetition."""
        import repro.experiments.runner
        from repro.core import BufferConfig
        if sharded:
            result, wall, slowdown = timed(self.sharded, inputs)
            return result.metrics, wall, slowdown
        workload, seed = inputs
        return timed(repro.experiments.runner.run_once, BufferConfig(),
                     workload, calibration=self.calibration(), seed=seed,
                     scenario=self.scenario(False))

    def _pass(self, inputs, sharded: bool, warm: bool) -> Pass:
        from repro.shard import metrics_fingerprint
        metrics, wall, slowdown = self.run(inputs, sharded)
        return Pass(wall, slowdown, metrics.completed_flows, 1,
                    _digest(metrics_fingerprint(metrics)), warm=warm,
                    expected=inputs[1])

    def iteration(self, inputs, inline: bool = False) -> List[Pass]:
        sharded = not inline
        return [self._pass(inputs, sharded, False),
                self._pass(inputs, sharded, True)]

    def serial_digest(self, seed: int) -> str:
        """The serial run's metrics fingerprint (computed once a seed)."""
        if seed not in self._reference:
            from repro.shard import metrics_fingerprint
            metrics, _wall, _slowdown = self.run(self.inputs(seed),
                                              sharded=False)
            self._reference[seed] = _digest(metrics_fingerprint(metrics))
        return self._reference[seed]

    def check(self, p: Pass) -> Optional[str]:
        if p.output != self.serial_digest(p.expected):
            return "sharded RunMetrics fingerprint != serial reference"
        return None

    def reference(self, seed: int) -> Dict[str, Any]:
        """Untraced sharded run through the public shard API."""
        from repro.shard import metrics_fingerprint
        inputs = self.inputs(seed)
        result, wall, slowdown = timed(self.sharded, inputs)
        p = Pass(wall, slowdown, result.metrics.completed_flows, 1,
                 _digest(metrics_fingerprint(result.metrics)),
                 expected=inputs[1])
        return {"passes": [p], "sharded_wall": wall,
                "report": result.report}

    def finish_layers(self, layers, ref, base) -> None:
        report = ref["report"]
        layers["shard.serial_ref_s"] = base[0].wall
        layers["shard.rounds"] = report.rounds
        layers["shard.rounds_coalesced"] = report.rounds_coalesced
        layers["shard.messages"] = report.messages
        layers["shard.bytes"] = report.bytes_total
        layers["shard.codec_s"] = report.serialize_seconds
        layers["shard.rounds_wall_s"] = report.rounds_wall_seconds
        layers["shard.speedup"] = (layers["shard.serial_ref_s"]
                                   / ref["sharded_wall"])


WORKLOADS = {w.name: w for w in (PaperAll, ScaleHybrid, LineChurn)}
