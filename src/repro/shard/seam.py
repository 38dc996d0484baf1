"""Worker-side shard adoption: replicated build, partitioned execution.

Every shard process builds the *full* testbed from the same spec and
seed (bit-identical construction — all randomness flows through named
:class:`~repro.simkit.RandomStreams` substreams), then *adopts* its
partition:

* non-owned switches and the controller are muted (``shutdown()``
  cancels their timers; nothing routes traffic to them locally);
* non-owned metric samplers are stopped, so every sample series is
  produced exactly once across the shard set;
* cut links whose **sender** lives here get their
  :attr:`~repro.netsim.Link._outbound` seam installed, turning each
  send into a timestamped cross-shard message — adoption itself sends
  some (the controller handshake), which travel with the shard's
  ``ready`` reply;
* cut links whose **receiver** lives here are indexed for injection;
* only owned packet generators start, and only the controller's owner
  runs the handshake.

The delay tracker is replicated everywhere but only ever sees owned
switches' events, so per-shard records merge losslessly
(:mod:`repro.shard.state`).  One seam-specific fix-up: when this shard
owns the egress switch but not the ingress one, each flow's
``first_packet_uid`` is pre-filled from workload entry order — serial
runs learn it at first ingress, which never fires here, and the
first-packet egress timestamp (the setup-delay endpoint) would
otherwise be lost.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from .partition import PartitionPlan

#: One cross-shard message: (delivery time, cut-link index, per-link
#: sequence number, transported item).  The (time, index, seq) triple is
#: the deterministic injection ordering key.
ShardMessage = Tuple[float, int, int, Any]

#: Event kinds recorded by the verify-mode stream recorder: every
#: protocol observable a switch or the controller emits.
SWITCH_EVENT_KINDS = (
    "packet_ingress", "table_miss", "buffer_stored",
    "packet_in_sent", "reply_arrived", "flow_installed",
    "flow_evicted", "flow_expired", "buffer_released",
    "packet_egress", "packet_drop", "buffer_aged_out",
    "aggregate_forward",
    "controller_disconnected", "controller_reconnected")
CONTROLLER_EVENT_KINDS = (
    "packet_in_received", "replies_sent", "error_received",
    "flow_removed", "flow_stats")


class EventRecorder:
    """Per-component ``(time, kind, uid)`` streams for bit-identity checks.

    The third element is the packet/message uid when the event carries
    one — it distinguishes two same-kind events at the same instant, so
    stream equality really is event-*ordering* equality.
    """

    def __init__(self) -> None:
        self.streams: Dict[str, List[Tuple[float, str, Any]]] = {}

    def _subscribe(self, emitter, source: str, kinds) -> None:
        stream = self.streams.setdefault(source, [])
        for kind in kinds:
            emitter.on(kind, lambda time, *args, _kind=kind, _s=stream:
                       _s.append((time, _kind, _detail(args))))

    def attach(self, testbed, owned: Optional[set] = None) -> None:
        """Record events of every component (or just the ``owned`` set)."""
        for switch in testbed.switches:
            if owned is None or switch.name in owned:
                self._subscribe(switch.events, switch.name,
                                SWITCH_EVENT_KINDS)
        if owned is None or "controller" in owned:
            self._subscribe(testbed.controller.events, "controller",
                            CONTROLLER_EVENT_KINDS)


def _detail(args: tuple) -> Any:
    """A stable, picklable discriminator from an event's payload."""
    if not args:
        return None
    first = args[0]
    uid = getattr(first, "uid", None)
    if uid is not None:
        return uid
    packet = getattr(first, "packet", None)
    if packet is not None:
        return getattr(packet, "uid", None)
    if isinstance(first, (int, float, str)):
        return first
    return None


def first_packet_uids(workload) -> Dict[int, int]:
    """Each flow's first-to-be-sent packet uid, from entry order.

    The generator sends a ``replay_copy`` of each pre-built packet,
    which keeps its ``uid`` — so workload entry order (earliest offset
    first, entry order on ties, exactly the generator's scheduling
    order) identifies the packet serial runs see first at every hop of
    a FIFO path.
    """
    best: Dict[int, Tuple[float, int, int]] = {}
    for position, (offset, packet) in enumerate(workload.entries):
        flow_id = packet.flow_id
        if flow_id is None:
            continue
        key = (offset, position)
        if flow_id not in best or key < best[flow_id][:2]:
            best[flow_id] = (offset, position, packet.uid)
    return {flow_id: uid for flow_id, (_o, _p, uid) in best.items()}


class ShardContext:
    """One shard's event loop: an adopted full-testbed replica."""

    def __init__(self, testbed, plan: PartitionPlan, shard_index: int,
                 workload, settle: float, record_events: bool = False):
        self.testbed = testbed
        self.plan = plan
        self.shard_index = shard_index
        self.sim = testbed.sim
        self._outbox: List[ShardMessage] = []
        self._out_seq: Dict[int, int] = {}
        self._inbound: Dict[int, Any] = {}
        self.recorder: Optional[EventRecorder] = None
        self.stalled_rounds = 0
        self._adopt(workload, settle, record_events)

    # -- adoption --------------------------------------------------------
    def _owned(self, node_name: str) -> bool:
        return self.plan.shard_of_node[node_name] == self.shard_index

    def _adopt(self, workload, settle: float, record_events: bool) -> None:
        testbed, plan, me = self.testbed, self.plan, self.shard_index

        # Seam the cut links before anything can transmit.
        for cut in plan.cut_links:
            cable = testbed.topology.cable(*cut.cable)
            link = getattr(cable, cut.direction)
            if cut.src == me:
                link._outbound = self._make_outbound(cut.index)
            elif cut.dst == me:
                self._inbound[cut.index] = link
            else:
                # Foreign traffic would mean a muting hole; fail loudly.
                link._outbound = self._make_foreign_guard(link.name)

        # Mute non-owned components: their events run in another shard.
        for switch in testbed.switches:
            if not self._owned(switch.name):
                switch.shutdown()
        controller_owner = plan.controller_shard == me
        if not controller_owner:
            testbed.controller.shutdown()
        self._mute_samplers()

        if record_events:
            owned = {s.name for s in testbed.switches
                     if self._owned(s.name)}
            if controller_owner:
                owned.add("controller")
            self.recorder = EventRecorder()
            self.recorder.attach(testbed, owned)

        # Egress-but-not-ingress owner: pre-fill first-packet uids (see
        # module docstring).
        if (plan.egress_shard == me and plan.ingress_shard != me):
            uids = first_packet_uids(workload)
            for flow_id, record in (
                    testbed.metrics.delay_tracker.records.items()):
                record.first_packet_uid = uids.get(flow_id)

        # Only owners generate traffic / run the control plane.
        for pktgen in testbed.pktgens:
            if self._owned(pktgen.host.name):
                pktgen.start(at=settle)
        if controller_owner:
            testbed.controller.start_handshake()

    def _make_outbound(self, cut_index: int):
        outbox = self._outbox
        seq = self._out_seq

        def emit(deliver_time: float, item: Any) -> None:
            number = seq.get(cut_index, 0)
            seq[cut_index] = number + 1
            outbox.append((deliver_time, cut_index, number, item))
        return emit

    def _make_foreign_guard(self, link_name: str):
        def guard(deliver_time: float, item: Any) -> None:
            raise RuntimeError(
                f"shard {self.shard_index} saw traffic on foreign link "
                f"{link_name!r}: a non-owned component is still live")
        return guard

    def _mute_samplers(self) -> None:
        metrics = self.testbed.metrics
        controller_owner = self.plan.controller_shard == self.shard_index
        for switch, cpu, gauge in zip(metrics.switches,
                                      metrics.switch_samplers,
                                      metrics.buffer_samplers):
            if not self._owned(switch.name):
                cpu.stop()
                gauge.stop()
        if not controller_owner:
            metrics.controller_sampler.stop()

    # -- round execution -------------------------------------------------
    def advance(self, t_end: float, messages: List[ShardMessage],
                inclusive: bool) -> Tuple[List[ShardMessage], float,
                                          Optional[int]]:
        """Inject ``messages``, run the local loop up to the horizon.

        Exclusive horizons (``inclusive=False``) execute events strictly
        before ``t_end`` — the conservative window: a cross-shard message
        may still arrive *at* ``t_end``.  The final advance of a
        deadline is inclusive (mirroring serial ``run(until=deadline)``)
        and is only issued once no shard can deliver at or before it.

        Returns ``(outbound messages, next local event time, completed
        flows or None)`` — the completion count is only computed on
        inclusive advances (it is O(flows) and only the extension loop
        needs it).
        """
        for message in sorted(messages, key=lambda m: (m[0], m[1], m[2])):
            deliver_time, cut_index, _seq, item = message
            link = self._inbound[cut_index]
            self.sim.schedule_at(deliver_time, link._deliver, item)
        target = t_end if inclusive else math.nextafter(t_end, -math.inf)
        had_work = bool(messages) or self.sim.peek() <= target
        if not had_work:
            self.stalled_rounds += 1
        if target > self.sim._now:
            self.sim.run(until=target)
        completed = None
        if inclusive:
            completed = self.testbed.metrics.delay_tracker.completed_flows
        return self.take_outbox(), self.sim.peek(), completed

    def take_outbox(self) -> List[ShardMessage]:
        """Drain the cross-shard messages sent since the last drain."""
        # Drain in place: the seam closures hold a reference to this
        # exact list, so rebinding would orphan them.
        outbound = list(self._outbox)
        self._outbox.clear()
        return outbound
