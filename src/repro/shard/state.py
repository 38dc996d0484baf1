"""Extracting shard-local measurement state and grafting it back.

Bit-identical merged metrics come from a *graft-into-parent* merge: the
coordinator keeps its own never-run replica of the testbed, copies each
shard's raw measurement state onto the replica's idle probes, and then
the run's shared tail (``runner.finish_run``) takes the standard
``metrics.snapshot(...)`` — every derived figure goes through exactly
the serial math, so there is no second aggregation implementation to
drift.

Ownership is structural: each capture is owned by the shard containing
its link's *sender*, each sampler by its component's shard, each
per-switch counter by the switch's shard.  Delay-tracker records are the
one shared structure — every shard fills a disjoint slice of each flow's
record (ingress fields at the ingress shard, egress fields at the egress
shard, control fields wherever packet_ins were sent), merged field-wise
with min/max/sum rules matching what one tracker would have seen.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .partition import PartitionPlan

#: Mutable FlowDelayRecord fields, in extraction order.
_RECORD_FIELDS = ("first_ingress", "first_packet_uid",
                  "first_packet_egress", "last_egress", "egress_count",
                  "ingress_count", "first_packet_in_sent",
                  "first_reply_arrived", "packet_ins_sent")


def _suite_captures(metrics) -> Dict[Tuple[str, int], Any]:
    """Capture objects keyed by (direction, switch index)."""
    table: Dict[Tuple[str, int], Any] = {}
    for i, capture in enumerate(metrics.captures_up):
        table[("up", i)] = capture
    for i, capture in enumerate(metrics.captures_down):
        table[("down", i)] = capture
    return table


def _suite_samplers(metrics) -> Dict[Tuple[str, int], Any]:
    """Sampler objects keyed by (kind, switch index)."""
    table: Dict[Tuple[str, int], Any] = {}
    for i, sampler in enumerate(metrics.switch_samplers):
        table[("switch", i)] = sampler
    for i, sampler in enumerate(metrics.buffer_samplers):
        table[("buffer", i)] = sampler
    table[("controller", 0)] = metrics.controller_sampler
    return table


def extract_state(context) -> Dict[str, Any]:
    """This shard's owned measurement state, as plain picklable data."""
    testbed, plan, me = context.testbed, context.plan, context.shard_index
    metrics = testbed.metrics
    switches = metrics.switches

    def owner_of(key: Tuple[str, int]) -> int:
        kind, index = key
        if kind in ("down", "controller"):
            return plan.controller_shard
        return plan.shard_of_node[switches[index].name]

    captures = {}
    for key, capture in _suite_captures(metrics).items():
        if owner_of(key) == me:
            captures[key] = (list(capture.records), capture.bytes_total,
                             dict(capture.by_kind),
                             dict(capture.bytes_by_kind))

    samplers = {}
    for key, sampler in _suite_samplers(metrics).items():
        if owner_of(key) == me:
            samplers[key] = (list(sampler.series.times),
                             list(sampler.series.values))

    counters = {}
    for switch in switches:
        if plan.shard_of_node[switch.name] != me:
            continue
        buffer = switch.mechanism.buffer
        counters[switch.name] = {
            "dropped": switch.datapath.packets_dropped.value,
            "abandoned": switch.mechanism.flows_abandoned,
            "peak": buffer.peak_units.value,
            "rejections": buffer.full_rejections.value,
        }

    tracker = metrics.delay_tracker
    records = {
        flow_id: tuple(getattr(record, field)
                       for field in _RECORD_FIELDS)
        for flow_id, record in tracker.records.items()
    }

    return {
        "shard": me,
        "records": records,
        "retry_count": metrics._retry_count,
        "captures": captures,
        "samplers": samplers,
        "counters": counters,
        "stalled_rounds": context.stalled_rounds,
        "events": (context.recorder.streams
                   if context.recorder is not None else None),
    }


def _min_opt(values) -> Optional[float]:
    present = [v for v in values if v is not None]
    return min(present) if present else None


def _max_opt(values) -> Optional[float]:
    present = [v for v in values if v is not None]
    return max(present) if present else None


def merge_records(parent_records: Dict[int, Any],
                  shard_records: List[Dict[int, tuple]]) -> None:
    """Fold per-shard record slices into the parent tracker in place."""
    for flow_id, record in parent_records.items():
        slices = [state[flow_id] for state in shard_records
                  if flow_id in state]
        if not slices:
            continue
        by_field = dict(zip(_RECORD_FIELDS, zip(*slices)))
        record.first_ingress = _min_opt(by_field["first_ingress"])
        # Ingress owner learned the uid live; the egress owner pre-filled
        # the same value from workload order.  Any non-None one is it.
        record.first_packet_uid = _min_opt(by_field["first_packet_uid"])
        record.first_packet_egress = _min_opt(
            by_field["first_packet_egress"])
        record.last_egress = _max_opt(by_field["last_egress"])
        record.egress_count = sum(by_field["egress_count"])
        record.ingress_count = sum(by_field["ingress_count"])
        record.first_packet_in_sent = _min_opt(
            by_field["first_packet_in_sent"])
        record.first_reply_arrived = _min_opt(
            by_field["first_reply_arrived"])
        record.packet_ins_sent = sum(by_field["packet_ins_sent"])


def graft_states(parent_testbed, plan: PartitionPlan,
                 states: List[Dict[str, Any]]) -> None:
    """Copy every shard's owned state onto the parent's idle replicas."""
    from ..metrics.series import TimeSeries

    metrics = parent_testbed.metrics
    merge_records(metrics.delay_tracker.records,
                  [state["records"] for state in states])
    metrics._retry_count = sum(state["retry_count"] for state in states)

    capture_table = _suite_captures(metrics)
    sampler_table = _suite_samplers(metrics)
    switches = {s.name: s for s in metrics.switches}
    for state in states:
        for key, payload in state["captures"].items():
            records, bytes_total, by_kind, bytes_by_kind = payload
            capture = capture_table[key]
            capture.records = records
            capture.bytes_total = bytes_total
            capture.by_kind.clear()
            capture.by_kind.update(by_kind)
            capture.bytes_by_kind.clear()
            capture.bytes_by_kind.update(bytes_by_kind)
        for key, (times, values) in state["samplers"].items():
            sampler = sampler_table[key]
            series = TimeSeries(sampler.series.name)
            for time, value in zip(times, values):
                series.add(time, value)
            sampler.series = series
        for name, counts in state["counters"].items():
            switch = switches[name]
            switch.datapath.packets_dropped.value = counts["dropped"]
            switch.mechanism.flows_abandoned = counts["abandoned"]
            buffer = switch.mechanism.buffer
            buffer.peak_units.value = counts["peak"]
            buffer.full_rejections.value = counts["rejections"]


def merged_events(states: List[Dict[str, Any]]
                  ) -> Dict[str, List[tuple]]:
    """Per-component event streams across shards (disjoint by owner)."""
    merged: Dict[str, List[tuple]] = {}
    for state in states:
        if state["events"]:
            for source, stream in state["events"].items():
                merged.setdefault(source, []).extend(
                    tuple(entry) for entry in stream)
    return merged
