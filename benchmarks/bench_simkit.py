"""Kernel performance benchmarks: what a testbed-second costs.

Not a paper figure — these keep the simulation kernel honest.  Every
workload-A repetition executes tens of thousands of events; regressions
here silently multiply every sweep's wall-clock time.

Run as a script to (re)generate the tracked perf record::

    PYTHONPATH=src python benchmarks/bench_simkit.py                   # _output/
    PYTHONPATH=src python benchmarks/bench_simkit.py --update-baseline # repo root

See ``kernelrecord.py`` for the ``BENCH_kernel.json`` format and
``perf_gate.py`` for the CI regression gate built on top of it.
"""

from __future__ import annotations

import json

from repro.core import buffer_256, flow_buffer_256
from repro.engine import HYBRID
from repro.experiments import run_once, scale_workload
from repro.scenarios import SINGLE
from repro.openflow import (FlowEntry, FlowTable, Match, OutputAction,
                            PacketBuffer)
from repro.packets import udp_packet
from repro.simkit import ServiceStation, Simulator, mbps
from repro.trafficgen import batched_multi_packet_flows, single_packet_flows
from repro.simkit import RandomStreams


def _timer_chain(delay, until=None, profiler=None):
    """20k self-rescheduling events, ``delay`` simulated seconds apart."""
    sim = Simulator()
    if profiler is not None:
        sim.attach_profiler(profiler)
    counter = {"n": 0}

    def tick():
        counter["n"] += 1
        if counter["n"] < 20_000:
            sim.schedule(delay, tick)

    sim.schedule(0.0, tick)
    sim.run(until=until)
    return counter["n"]


def _event_loop_chain():
    """20k-event timer chain: the bare heap scheduling path."""
    return _timer_chain(0.001)


def _event_loop_until_chain():
    """The timer chain driven by ``run(until=…)``, as every testbed run is.

    The horizon lies past the last tick (t ~ 20 s), so all 20k events run
    and the clock then jumps to it.
    """
    return _timer_chain(0.001, until=60.0)


def _zero_delay_chain():
    """20k-event same-instant chain: the dispatch micro-queue path."""
    return _timer_chain(0.0)


def test_event_loop_throughput(benchmark):
    """Bare scheduling throughput: chains of self-rescheduling events."""
    executed = benchmark.pedantic(_event_loop_chain, rounds=3, iterations=1)
    assert executed == 20_000


def test_event_loop_until_throughput(benchmark):
    """The timer chain under a bounded ``run(until=…)``: the loop shape
    every figure, benchmark workload and shard advance drives."""
    executed = benchmark.pedantic(_event_loop_until_chain, rounds=3,
                                  iterations=1)
    assert executed == 20_000


def test_zero_delay_dispatch(benchmark):
    """Same-instant dispatch throughput (the ready micro-queue path)."""
    executed = benchmark.pedantic(_zero_delay_chain, rounds=3, iterations=1)
    assert executed == 20_000


def _station_run():
    """10k submit/finish cycles through a 4-server station."""
    sim = Simulator()
    station = ServiceStation(sim, "s", servers=4)
    done = {"n": 0}

    def on_done(payload):
        done["n"] += 1

    for i in range(10_000):
        station.submit(i, 0.0001, on_done)
    sim.run()
    return done["n"]


def _pktbuf_private_run():
    """20k one-packet-unit store/release cycles, private (pool-less).

    The packet-granularity mechanism's path through the one buffer
    store: guards the ``pool is None`` fast path in
    ``PacketBuffer.store``, since a pooled buffer may pay for ledger
    routing and a private one must not, and the unkeyed-unit path
    through ``release``.
    """
    buffer = PacketBuffer(capacity=64, reclaim_delay=0.0005)
    packet = udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                        "10.0.0.1", "10.0.0.2", 5000, 5001)
    now = 0.0
    for _ in range(20_000):
        buffer_id = buffer.store(packet, now)
        buffer.release(buffer_id, now)
        now += 0.001
    return buffer.released.value


class ScanExpiryTable(FlowTable):
    """A flow table whose sweep checks every live rule, as every sweep
    did before the deadline index (DESIGN.md §22).

    The reference that the ``expiry_sweep`` probe and
    ``tests/test_flowtable_stateful.py`` hold the index to: same
    removals, same report order, same listener calls.
    """

    def expire(self, now):
        expired = []
        for key, entry in list(self._exact.items()):
            if entry.is_expired(now):
                del self._exact[key]
                expired.append(entry)
        keep = []
        for entry in self._wildcards:
            if entry.is_expired(now):
                expired.append(entry)
            else:
                keep.append(entry)
        self._wildcards = keep
        if expired:
            self._expired(expired, now)
        return expired


#: The expiry_sweep probe: EXPIRY_PER_SWEEP exact rules with a 5 s idle
#: timeout arrive between consecutive 100 ms sweeps, so once the table
#: has filled ~3000 rules are live and ~2% fall due at each sweep —
#: scale_hybrid's shape (587 live rules, ~12 due per sweep).
EXPIRY_SWEEPS = 150
EXPIRY_PER_SWEEP = 60
#: Rules the probe's sweeps expire, index and reference scan alike.
EXPIRY_EXPIRED = 6001


def _expiry_rules():
    """The probe's rules, built once and reinstalled by every run
    (``insert`` resets their timestamps), so runs time only inserts
    and sweeps."""
    rules = []
    for i in range(EXPIRY_SWEEPS * EXPIRY_PER_SWEEP):
        packet = udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                            f"10.{i >> 16}.{(i >> 8) & 255}.{i & 255}",
                            "10.255.0.1", 1024, 9)
        rules.append(FlowEntry(
            match=Match.exact_from_packet(packet, in_port=1),
            actions=(OutputAction(2),), idle_timeout=5.0))
    return rules


def _expiry_sweep_run(rules, table_cls=FlowTable):
    """15 s of 100 ms sweeps over a table that fills to ~3000 rules."""
    table = table_cls(capacity=len(rules))
    expired = 0
    for sweep in range(EXPIRY_SWEEPS):
        for i in range(sweep * EXPIRY_PER_SWEEP,
                       (sweep + 1) * EXPIRY_PER_SWEEP):
            table.insert(rules[i], i / (10 * EXPIRY_PER_SWEEP))
        expired += len(table.expire((sweep + 1) / 10))
    return expired


def expiry_sweep_pair():
    """The probe's two sides, full-scan reference first, sharing rules."""
    rules = _expiry_rules()
    return (lambda: _expiry_sweep_run(rules, ScanExpiryTable),
            lambda: _expiry_sweep_run(rules))


#: Best-of rounds for the full-testbed probe, recorded and gated alike.
TESTBED_ROUNDS = 5


def _testbed_run():
    """One full 500-flow repetition of the canonical testbed."""
    workload = single_packet_flows(mbps(60), n_flows=500,
                                   rng=RandomStreams(0))
    return run_once(buffer_256(), workload)


#: Best-of rounds for the workload-generation probe, recorded and gated
#: alike.
GENERATION_ROUNDS = 7
#: Generator calls in one quick ``all`` pass (``repro-sdn-buffer all
#: --flows 150 --reps 1``): 26 §V workloads of 50 flows x 20 packets and
#: 72 §IV workloads of 150 single-packet flows.
BATCHED_CALLS, SINGLE_CALLS = 26, 72
GENERATION_PACKETS = BATCHED_CALLS * 50 * 20 + SINGLE_CALLS * 150


def _workload_generation():
    """Build the quick ``all`` grid's workloads: 36,800 packets.

    Each call builds and validates its header stacks and packets
    exactly as a sweep's workload factories do, jitter draws included.
    """
    rng = RandomStreams(0)
    packets = 0
    for _ in range(BATCHED_CALLS):
        packets += batched_multi_packet_flows(mbps(60), rng=rng).n_packets
    for _ in range(SINGLE_CALLS):
        packets += single_packet_flows(mbps(60), n_flows=150,
                                       rng=rng).n_packets
    return packets


#: Flows in the hybrid-engine scale probe.  Matches the figscale
#: grid's 10^5 point — big enough that the packet engine takes minutes,
#: which is exactly the regime the hybrid engine exists for.
HYBRID_FLOWS = 100_000


def _hybrid_flow_workload():
    """The canonical figscale workload at the 10^5-flow bench point.

    Built once outside the timed region (lazy tails, but 10^5 first
    packets are real objects); the committed baseline excludes workload
    construction for the same reason.
    """
    return scale_workload(HYBRID_FLOWS)


def _hybrid_flow_run(workload=None):
    """One 10^5-flow repetition under the hybrid execution engine.

    The probe the 10^6-flow claim rests on: its ``BENCH_kernel.json``
    *before* number is the packet engine on the identical workload, so
    the recorded speedup is the hybrid-vs-packet ratio itself.
    """
    if workload is None:
        workload = _hybrid_flow_workload()
    return run_once(flow_buffer_256(), workload, seed=7,
                    scenario=SINGLE.with_engine(HYBRID))


def _event_loop_profiled_chain():
    """The 20k-event timer chain with the component profiler attached.

    Measures the *enabled* profiling path; the ratio against
    ``_event_loop_chain`` is the profiler's own overhead (recorded in
    ``BENCH_kernel.json`` and asserted by ``perf_gate.py``).
    """
    from repro.obs import ComponentProfiler
    return _timer_chain(0.001, profiler=ComponentProfiler())


def _observed_testbed_run(trace=False, profile=False):
    """One testbed repetition with a RunObserver attached."""
    from repro.obs import ObsConfig, RunObserver
    workload = single_packet_flows(mbps(60), n_flows=500,
                                   rng=RandomStreams(0))
    observer = RunObserver(ObsConfig(trace=trace, profile=profile),
                           label="bench", rate_mbps=60.0)
    run_once(buffer_256(), workload, obs=observer)
    return observer.observation


def _testbed_components():
    """Component self-time shares from one profiled testbed run."""
    report = _observed_testbed_run(profile=True).profile
    total = sum(stat.sampled_seconds
                for stat in report.components.values()) or 1.0
    return {name: stat.sampled_seconds / total
            for name, stat in sorted(report.components.items())}


def test_pktbuf_private_throughput(benchmark):
    """Null-pool packet-buffer hot path: store/release cycles."""
    released = benchmark.pedantic(_pktbuf_private_run, rounds=3,
                                  iterations=1)
    assert released == 20_000


def test_station_throughput(benchmark):
    """Queueing-station hot path: submit/finish cycles."""
    completed = benchmark.pedantic(_station_run, rounds=3, iterations=1)
    assert completed == 10_000


def test_expiry_sweep(benchmark):
    """The deadline-indexed sweep; gated by ``perf_gate.py`` as a paired
    ratio against the full-scan reference, which must agree with it."""
    scan, indexed = expiry_sweep_pair()
    expired = benchmark.pedantic(indexed, rounds=3, iterations=1)
    assert expired == scan() == EXPIRY_EXPIRED


def test_full_testbed_event_cost(benchmark):
    """Flows/sec through the discrete miss path: every flow a table miss.

    Gated by ``perf_gate.py``; runs as many rounds as the recorded
    best-of, so the gate compares like with like.
    """
    result = benchmark.pedantic(_testbed_run, rounds=TESTBED_ROUNDS,
                                iterations=1)
    assert result.completed_flows == 500


def test_workload_generation(benchmark):
    """Packets/sec building the quick ``all`` grid's workloads.

    Gated by ``perf_gate.py``; runs as many rounds as the recorded
    best-of.
    """
    packets = benchmark.pedantic(_workload_generation,
                                 rounds=GENERATION_ROUNDS, iterations=1)
    assert packets == GENERATION_PACKETS


def test_hybrid_flow_throughput(benchmark):
    """Hybrid-engine flows/sec at the figscale 10^5-flow point."""
    workload = _hybrid_flow_workload()
    result = benchmark.pedantic(lambda: _hybrid_flow_run(workload),
                                rounds=1, iterations=1)
    assert result.completed_flows == HYBRID_FLOWS
    assert result.total_flows == HYBRID_FLOWS


def main(argv=None):
    """Measure every probe and write the ``BENCH_kernel.json`` record."""
    import argparse

    import kernelrecord

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the committed repo-root record instead "
                             "of benchmarks/_output/")
    args = parser.parse_args(argv)

    after = {
        "event_loop": kernelrecord.best_of(_event_loop_chain),
        "event_loop_until": kernelrecord.best_of(_event_loop_until_chain),
        "zero_delay_dispatch": kernelrecord.best_of(_zero_delay_chain),
        "station": kernelrecord.best_of(_station_run),
        "pktbuf_private": kernelrecord.best_of(_pktbuf_private_run),
        "full_testbed": kernelrecord.best_of(_testbed_run,
                                             rounds=TESTBED_ROUNDS),
        "workload_generation": kernelrecord.best_of(
            _workload_generation, rounds=GENERATION_ROUNDS),
    }
    # The scale probe costs ~half a minute per round; one round is
    # plenty — the committed speedup is ~an order of magnitude, far
    # beyond round-to-round jitter.
    workload = _hybrid_flow_workload()
    after["hybrid_flows"] = kernelrecord.best_of(
        lambda: _hybrid_flow_run(workload), rounds=1)
    # The expiry sweep against its full-scan reference, interleaved in
    # this process: the reference is the *before*.
    expiry = kernelrecord.paired_best(*expiry_sweep_pair())
    window = _testbed_run().window
    # Observability overhead, self-relative on this machine: profiled /
    # plain event loop and traced / plain testbed wall times, measured
    # interleaved so both sides share CPU-frequency state.
    obs_overhead = {
        "event_loop_profiled_ratio": kernelrecord.paired_ratio(
            _event_loop_chain, _event_loop_profiled_chain),
        "testbed_traced_ratio": kernelrecord.paired_ratio(
            _testbed_run, lambda: _observed_testbed_run(trace=True),
            rounds=3),
    }
    record = kernelrecord.build_record(
        after, testbed_window_s=window,
        components=_testbed_components(), obs_overhead=obs_overhead)
    record["benchmarks"]["expiry_sweep"] = kernelrecord.paired_entry(
        "expiry_sweep", *expiry)
    path = (kernelrecord.BASELINE_PATH if args.update_baseline
            else kernelrecord.OUTPUT_PATH)
    # The shard scaling curve is measured by bench_shard.py, not here;
    # carry the existing section forward instead of dropping it.
    if path.exists():
        previous = json.loads(path.read_text())
        if "shard_scaling" in previous:
            record["shard_scaling"] = previous["shard_scaling"]
    kernelrecord.write_record(record, path)
    for name, bench in record["benchmarks"].items():
        print(f"{name:22s} {bench['before']['seconds']:.6f}s -> "
              f"{bench['after']['seconds']:.6f}s  ({bench['speedup']:.2f}x)")
    for name, ratio in record["obs_overhead"].items():
        print(f"{name:28s} {ratio:.3f}x")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

