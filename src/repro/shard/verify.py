"""Side-by-side verification: sharded vs serial, bit for bit.

``verify_shard_equivalence`` runs the same repetition twice — once on
the single serial event loop, once sharded — and compares:

* **event ordering**: per-component ``(time, kind, uid)`` streams of
  every protocol observable the switches and the controller emit
  (``seam.SWITCH_EVENT_KINDS`` / ``CONTROLLER_EVENT_KINDS``).
  Components are each owned by exactly one shard, so per-component
  streams are total orders in both modes and must match exactly;
* **metrics**: the full :class:`~repro.metrics.RunMetrics` snapshot,
  field by field, sample series included;
* **cache keying**: the sharded scenario's cache token must *differ*
  from the serial one — sharded and unsharded runs never share result
  cache entries, even though their payloads are asserted equal here.

This is the acceptance gate the CI shard-smoke job runs on the line:2
and fanin:4 goldens.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .spec import PER_SWITCH, OFF, ShardSpec


def metrics_fingerprint(metrics) -> Dict[str, Any]:
    """A RunMetrics snapshot as plain comparable data."""
    from ..metrics.series import TimeSeries

    data = dataclasses.asdict(metrics)
    for key, value in list(data.items()):
        if isinstance(value, TimeSeries):
            data[key] = (value.times, value.values)
    return data


@dataclass
class VerifyReport:
    """The outcome of one sharded-vs-serial comparison."""

    scenario: str
    n_shards: int
    transport: str
    ok: bool
    mismatches: List[str] = field(default_factory=list)
    #: Events compared per component (serial counts).
    event_counts: Dict[str, int] = field(default_factory=dict)
    rounds: int = 0
    horizon_stalls: int = 0
    messages: int = 0
    serial_token: str = ""
    shard_token: str = ""

    def summary(self) -> str:
        """One human line per aspect checked."""
        status = "OK" if self.ok else "MISMATCH"
        events = sum(self.event_counts.values())
        lines = [
            f"shard-verify {self.scenario}: {status}",
            f"  shards={self.n_shards} transport={self.transport} "
            f"rounds={self.rounds} messages={self.messages} "
            f"stalls={self.horizon_stalls}",
            f"  events compared: {events} across "
            f"{len(self.event_counts)} components",
            f"  cache tokens distinct: "
            f"{'yes' if self.serial_token != self.shard_token else 'NO'}",
        ]
        lines.extend(f"  mismatch: {text}" for text in self.mismatches)
        return "\n".join(lines)


def _first_divergence(serial: List[tuple], sharded: List[tuple]) -> str:
    for index, (a, b) in enumerate(zip(serial, sharded)):
        if tuple(a) != tuple(b):
            return (f"first divergence at event {index}: "
                    f"serial={tuple(a)!r} sharded={tuple(b)!r}")
    return (f"length mismatch: serial={len(serial)} "
            f"sharded={len(sharded)} events")


def verify_shard_equivalence(scenario, buffer_config=None, *,
                             shard: Optional[ShardSpec] = None,
                             n_flows: int = 30, rate_mbps: float = 4.0,
                             seed: int = 7, settle: float = 0.020,
                             drain: float = 0.250,
                             transport: str = "inline",
                             faults=None) -> VerifyReport:
    """Run ``scenario`` serial and sharded; compare events and metrics."""
    from ..core import BufferConfig
    from ..experiments.runner import run_once
    from ..simkit import RandomStreams, mbps
    from ..trafficgen import single_packet_flows
    from .coordinator import execute_sharded
    from .seam import EventRecorder

    if buffer_config is None:
        buffer_config = BufferConfig()
    if shard is None:
        shard = PER_SWITCH
    serial_spec = scenario.with_shard(OFF)
    shard_spec = scenario.with_shard(shard)

    workload = single_packet_flows(
        mbps(rate_mbps), n_flows=n_flows, rng=RandomStreams(seed))

    recorder = EventRecorder()
    serial_metrics = run_once(
        buffer_config, workload, seed=seed, settle=settle, drain=drain,
        scenario=serial_spec, faults=faults,
        on_testbed=lambda testbed: recorder.attach(testbed))

    result = execute_sharded(
        buffer_config, workload, seed=seed, settle=settle, drain=drain,
        scenario=shard_spec, faults=faults, transport=transport,
        record_events=True)

    report = VerifyReport(
        scenario=shard_spec.name, n_shards=result.report.n_shards,
        transport=result.report.transport, ok=True,
        rounds=result.report.rounds,
        horizon_stalls=result.report.horizon_stalls,
        messages=result.report.messages,
        serial_token=serial_spec.cache_token(),
        shard_token=shard_spec.cache_token())

    serial_events = {source: [tuple(e) for e in stream]
                     for source, stream in recorder.streams.items()}
    shard_events = {source: [tuple(e) for e in stream]
                    for source, stream in (result.report.events or
                                           {}).items()}
    report.event_counts = {source: len(stream)
                           for source, stream in serial_events.items()}
    for source in sorted(set(serial_events) | set(shard_events)):
        a = serial_events.get(source, [])
        b = shard_events.get(source, [])
        if a != b:
            report.mismatches.append(
                f"event stream {source!r}: {_first_divergence(a, b)}")

    serial_print = metrics_fingerprint(serial_metrics)
    shard_print = metrics_fingerprint(result.metrics)
    for key in serial_print:
        if serial_print[key] != shard_print[key]:
            report.mismatches.append(
                f"metric {key!r}: serial={serial_print[key]!r} "
                f"sharded={shard_print[key]!r}")

    if report.serial_token == report.shard_token:
        report.mismatches.append(
            "cache tokens collide: sharded runs would share result-cache "
            "entries with serial runs")
    report.ok = not report.mismatches
    return report
