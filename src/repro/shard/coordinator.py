"""The conservative-lookahead shard coordinator.

Synchronization is barrier-synchronous null-messaging in the
Chandy–Misra–Bryant tradition, run through a parent coordinator instead
of peer-to-peer channels (one process per shard is expensive enough;
O(shards²) pipes would be worse).  Each round:

1. The parent computes every shard's *effective next event time* — its
   reported next local event, lowered by any in-flight cross-shard
   message addressed to it — then closes those bounds transitively::

       bound(j) = min(next_eff(j),
                      min over k != j of (bound(k) + L(k, j)))

   a Bellman–Ford fixpoint over the lookahead graph, where ``L(k, j)``
   is the minimum propagation delay over cut links from ``k`` to ``j``
   (the conservative lookahead).  The closure matters: shard ``j``'s
   next event may itself be *caused* by a message nobody has sent yet
   (controller wakes a quiet switch, which replies long before its own
   next local timer).  Each shard's **horizon** is then::

       t_end(i) = min over j != i of (bound(j) + L(j, i))

   Any message shard ``j`` can still produce is emitted no earlier than
   ``bound(j)`` and arrives no earlier than ``L`` later, so executing
   events *strictly before* ``t_end(i)`` can never be invalidated.

2. Shards with work advance in parallel: pending messages due by the
   deadline are injected (ordered by ``(delivery time, cut-link index,
   per-link sequence)`` — the deterministic cross-shard tie rule), the
   local loop runs up to the exclusive horizon, and freshly emitted
   messages come back.

3. Once no shard can deliver at or before the deadline, each shard gets
   one *inclusive* advance to the deadline — mirroring what serial
   ``sim.run(until=deadline)`` executes — and the deadline segment is
   done.

Progress is guaranteed because every cut link has strictly positive
propagation delay (enforced at plan time): the globally earliest shard
always clears its own next event.  A shard advanced over a window
holding no local events and no injections counts a *horizon stall* —
the null-message overhead figure exported on the parent registry.

Every round travels as pickled per-destination batches
(:mod:`repro.shard.transport`) between two
:class:`~repro.shard.transport.ShardChannel` ends, whatever carries
them: a pipe to a forked worker (``fork``) or an in-process loopback
(``inline``).  The coordinator routes each batch as opaque bytes and
reads only its delivery times.  Both carriers answer the coordinator
through one function, :func:`_serve`, so an inline run sends the same
messages in the same batches as a fork run; only the final state is
handed over in-process.

A sharded run ends through :func:`repro.experiments.runner.finish_run`,
the tail serial runs take too, with :meth:`ShardCoordinator.run_until`
as its way to advance: the deadline extension, the graft of every
shard's state (:mod:`repro.shard.state`) onto a never-run parent
replica, the standard ``metrics.snapshot``, the active and load windows
and the incomplete accounting are one code path, so sharded and serial
runs return bit-identical :class:`~repro.metrics.RunMetrics`.
"""

from __future__ import annotations

import math
import multiprocessing
import warnings
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..obs.spans import SpanRecorder
from .partition import PartitionPlan, build_partition_plan
from .seam import ShardContext
from .state import extract_state, graft_states, merged_events
from .transport import Batch, ShardChannel, TransportStats, loopback_pair


def _fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# Shard handles: one local, one forked — same channel, same batches
# ---------------------------------------------------------------------------

class _ShardHandle:
    """The coordinator's end of one shard's :class:`ShardChannel`.

    Subclasses attach ``channel`` to a carrier and receive the shard's
    ready announcement; advancing, collecting replies and the transport
    stats are common to both carriers.
    """

    channel: ShardChannel

    @property
    def stats(self) -> TransportStats:
        return self.channel.stats

    def _recv(self, expected: str):
        try:
            message = self.channel.recv()
        except (EOFError, ConnectionError, OSError) as exc:
            raise RuntimeError(
                f"shard worker died mid-round ({type(exc).__name__}); "
                f"see worker stderr for the original failure") from exc
        tag, payload = message[0], message[1]
        if tag == "error":
            raise RuntimeError(f"shard worker failed:\n{payload}")
        if tag != expected:
            raise RuntimeError(
                f"shard worker protocol error: got {tag!r}, "
                f"expected {expected!r}")
        return payload

    def advance(self, t_end: float, deadline: float, blobs: List[bytes],
                inclusive: bool) -> None:
        try:
            self.channel.send_advance(t_end, deadline, blobs, inclusive)
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            raise RuntimeError(
                f"shard worker died mid-round ({type(exc).__name__}); "
                f"see worker stderr for the original failure") from exc

    def result(self) -> Tuple[List[Batch], float, Optional[int]]:
        return self._recv("advanced")


class _InlineShard(_ShardHandle):
    """A shard's event loop living in the coordinator's own process.

    Its worker end is a real :class:`ShardChannel`, joined to the
    coordinator's end by a :func:`loopback_pair` instead of a pipe: every
    round is pickled, shipped, routed and unpickled exactly as under
    fork, through :func:`_serve`, so inline runs verify the very wire a
    fork run uses.  Only the final state skips the wire — it is handed
    over as the object :func:`_serve` returns.
    """

    def __init__(self, build_args: dict, shard_index: int):
        parent_end, worker_end = loopback_pair()
        self._worker = ShardChannel(worker_end)
        self._context = _start_shard(self._worker, build_args, shard_index)
        self.channel = ShardChannel(parent_end)
        self.next_time, self.ready = self._recv("ready")

    def advance(self, t_end: float, deadline: float, blobs: List[bytes],
                inclusive: bool) -> None:
        super().advance(t_end, deadline, blobs, inclusive)
        _serve(self._context, self._worker, self._worker.recv())

    def collect(self) -> Dict[str, Any]:
        return _serve(self._context, self._worker, ("collect",))

    def kill(self) -> None:
        pass

    def close(self) -> None:
        pass


class _ForkShard(_ShardHandle):
    """A shard's event loop in a forked worker, spoken to over a pipe."""

    def __init__(self, build_args: dict, shard_index: int):
        self._process = None
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe(duplex=True)
        try:
            self._process = ctx.Process(
                target=_shard_worker,
                args=(child, build_args, shard_index),
                daemon=True)
            self._process.start()
            child.close()
            self.channel = ShardChannel(self._conn)
            self.next_time, self.ready = self._recv("ready")
        except BaseException:
            self.kill()
            raise

    def collect(self) -> Dict[str, Any]:
        self.channel.send_control(("collect",))
        return self._recv("state")

    def kill(self) -> None:
        """Hard teardown: terminate the worker and close its pipe.

        Idempotent, and safe to call from any partially-constructed or
        already-closed state — this is the crash path that keeps a dead
        worker's siblings from blocking forever in ``recv``.
        """
        process = self._process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - cleanup
            pass

    def close(self) -> None:
        try:
            self.channel.send_control(("stop",))
            self._conn.close()
        except (AttributeError, BrokenPipeError, OSError):
            pass  # already torn down (or never fully built)
        if self._process is not None:
            self._process.join(timeout=5.0)
            if self._process.is_alive():  # pragma: no cover - cleanup
                self._process.terminate()


def _start_shard(channel: ShardChannel, build_args: dict,
                 shard_index: int) -> ShardContext:
    """Replicated build + adoption, announced down the worker's channel.

    The ready message carries the shard's first event time and the
    cross-shard messages adoption sent: a cut link emits at send time,
    so the controller handshake leaves before the first round.
    """
    from ..faults import install_faults
    from ..scenarios import build_scenario

    testbed = build_scenario(build_args["scenario"],
                             build_args["buffer_config"],
                             build_args["workload"],
                             calibration=build_args["calibration"],
                             seed=build_args["seed"])
    install_faults(testbed, build_args["faults"])
    plan = build_partition_plan(testbed, build_args["scenario"].shard)
    context = ShardContext(testbed, plan, shard_index,
                           build_args["workload"], build_args["settle"],
                           record_events=build_args["record_events"])
    channel.send_ready(testbed.sim.peek(), context.take_outbox())
    return context


def _serve(context: ShardContext, channel: ShardChannel, command):
    """Carry out one coordinator command on a worker's end of the wire.

    Both carriers call this: the fork worker for every command it
    receives, the inline shard right after each advance it ships.  An
    advance is answered down ``channel``; ``collect`` returns the
    shard's final state, which the caller hands over (the fork worker
    pickles it up the pipe, the inline shard returns it as is).
    """
    if command[0] == "advance":
        _tag, t_end, messages, inclusive = command
        outbound, next_time, completed = context.advance(
            t_end, messages, inclusive)
        channel.send_reply(outbound, next_time, completed)
        return None
    if command[0] == "collect":
        state = extract_state(context)
        state["transport"] = channel.stats.as_dict()
        context.testbed.shutdown()
        return state
    raise ValueError(f"unknown shard command {command[0]!r}")


def _shard_worker(conn, build_args: dict, shard_index: int) -> None:
    """Worker process main loop: build once, then serve until ``stop``."""
    channel = ShardChannel(conn)
    try:
        context = _start_shard(channel, build_args, shard_index)
        while True:
            command = channel.recv()
            if command[0] == "stop":
                return
            state = _serve(context, channel, command)
            if state is not None:
                channel.send_control(("state", state))
    except BaseException:  # pragma: no cover - surfaced parent-side
        import traceback
        try:
            channel.send_control(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------

@dataclass
class ShardRunReport:
    """What one sharded run did, beyond its metrics."""

    n_shards: int
    #: Carrier the shards ran on: ``inline`` or ``fork``.
    transport: str
    rounds: int = 0
    messages: int = 0
    #: Advances over windows with no local events and no injections.
    horizon_stalls: int = 0
    #: Per-shard advances skipped entirely: the horizon moved but the
    #: window could not contain events or injections, so no IPC was paid.
    rounds_coalesced: int = 0
    #: Hot-path wire bytes (pickled advances and replies), counted once
    #: per message on the coordinator's side.  Inline and fork runs send
    #: the same messages in the same batches, but not always the same
    #: bytes: inline shards share the process-wide xid and packet-uid
    #: counters, so those ints differ in value, and pickle sizes an int
    #: by its value.
    bytes_total: int = 0
    #: Encode+decode wall time summed over both ends of every channel.
    serialize_seconds: float = 0.0
    #: Wall time spent inside ``run_until`` — the advance/reply rounds
    #: themselves, excluding fork/build/collect/graft.  Inline rounds
    #: do the same codec work, so the transport bench subtracts inline
    #: from fork on this figure to isolate the pipe's per-round cost.
    rounds_wall_seconds: float = 0.0
    #: Per-component event streams (verify mode only).
    events: Optional[Dict[str, List[tuple]]] = None
    #: One span per shard per deadline segment (sim-clock intervals).
    spans: SpanRecorder = field(
        default_factory=lambda: SpanRecorder(enabled=True))


class ShardCoordinator:
    """Drives one run's shard set through conservative rounds."""

    def __init__(self, handles, plan: PartitionPlan, report: ShardRunReport):
        self.handles = handles
        self.plan = plan
        self.report = report
        self.n = plan.n_shards
        self.lookahead = plan.lookahead
        #: Per destination: the delivery times of its in-flight messages
        #: not yet injected, whether their batch is still here or already
        #: shipped and held back by the worker.  Seeded with those the
        #: shards sent while adopting, so the first horizons see them.
        self.pending: List[List[float]] = [[] for _ in range(self.n)]
        #: Per destination: ``(earliest delivery, blob)`` of each batch
        #: not yet shipped.
        self.unshipped: List[List[Tuple[float, bytes]]] = [
            [] for _ in range(self.n)]
        for handle in handles:
            self._route(handle.ready)
        self.next_time = [handle.next_time for handle in handles]
        self.horizon = [0.0] * self.n
        self.completed: Optional[int] = None

    def _route(self, batches: List[Batch]) -> None:
        for dst, times, blob in batches:
            self.pending[dst].extend(times)
            self.unshipped[dst].append((min(times), blob))
            self.report.messages += len(times)

    def _next_effective(self) -> List[float]:
        return [min(self.next_time[i], min(self.pending[i], default=math.inf))
                for i in range(self.n)]

    def _ship_due(self, i: int, deadline: float) -> List[bytes]:
        """Take shard ``i``'s messages due by ``deadline`` off the books
        and return the unshipped blobs that hold any of them.

        The worker injects exactly the messages due by the deadline —
        from these blobs and from those it holds back — so the books and
        the injections agree without the blobs being opened here.
        """
        self.pending[i] = [t for t in self.pending[i] if t > deadline]
        waiting = self.unshipped[i]
        self.unshipped[i] = [entry for entry in waiting
                             if entry[0] > deadline]
        return [blob for first, blob in waiting if first <= deadline]

    def _closed_bounds(self, next_eff: List[float]) -> List[float]:
        """Transitive emission lower bounds (Bellman–Ford over L).

        ``next_eff`` alone is not a safe emission bound: a shard's next
        *caused* event can precede its next local one by an arbitrary
        margin once an inbound message wakes it.  Relaxing through the
        lookahead graph closes that chain; with every ``L > 0`` the
        fixpoint is reached in at most ``n - 1`` passes.
        """
        bound = list(next_eff)
        for _pass in range(self.n - 1):
            changed = False
            for j in range(self.n):
                for k in range(self.n):
                    if k == j:
                        continue
                    ahead = self.lookahead[k][j]
                    if ahead < math.inf and bound[k] + ahead < bound[j]:
                        bound[j] = bound[k] + ahead
                        changed = True
            if not changed:
                break
        return bound

    def run_until(self, deadline: float) -> int:
        """Advance every shard through ``deadline`` (inclusive).

        Returns the egress shard's completed-flow count at the deadline.
        """
        wall_start = perf_counter()
        segment_start = [dict(rounds=0, start=self.horizon[i])
                         for i in range(self.n)]
        final_done = [False] * self.n
        while True:
            bound = self._closed_bounds(self._next_effective())
            batch: List[Tuple[int, float, List[bytes], bool]] = []
            for i in range(self.n):
                promise = math.inf
                row_to_i = self.lookahead
                for j in range(self.n):
                    ahead = row_to_i[j][i]
                    if j != i and ahead < math.inf:
                        candidate = bound[j] + ahead
                        if candidate < promise:
                            promise = candidate
                if promise > deadline:
                    t_end, inclusive = deadline, True
                    if final_done[i]:
                        continue
                else:
                    t_end, inclusive = promise, False
                due = any(t <= deadline for t in self.pending[i])
                if not inclusive and not due:
                    if t_end <= self.horizon[i]:
                        continue
                    if self.next_time[i] >= t_end:
                        # Coalesce: the window holds no local events and
                        # no injections, so the worker would only move
                        # its clock — which the next real advance does
                        # anyway.  Record the horizon as granted and
                        # skip the IPC round entirely.  Progress is
                        # safe: the globally earliest shard always has
                        # next_time < its promise (every L > 0), so it
                        # is never coalesced and the batch stays
                        # non-empty until the final inclusive advances.
                        self.horizon[i] = t_end
                        self.report.rounds_coalesced += 1
                        continue
                blobs = self._ship_due(i, deadline) if due else []
                batch.append((i, t_end, blobs, inclusive))
            if not batch:
                break
            self.report.rounds += 1
            for i, t_end, blobs, inclusive in batch:
                segment_start[i]["rounds"] += 1
                self.handles[i].advance(t_end, deadline, blobs, inclusive)
            for i, t_end, _blobs, inclusive in batch:
                outbound, next_time, completed = self.handles[i].result()
                self.next_time[i] = next_time
                self.horizon[i] = max(self.horizon[i], t_end)
                final_done[i] = final_done[i] or inclusive
                if completed is not None and i == self.plan.egress_shard:
                    self.completed = completed
                self._route(outbound)
        for i in range(self.n):
            self.report.spans.add_span(
                f"shard-{i}", segment_start[i]["start"], deadline,
                category="shard", track=f"shard-{i}",
                rounds=segment_start[i]["rounds"])
        if self.completed is None:
            raise RuntimeError("egress shard reported no completion count")
        self.report.rounds_wall_seconds += perf_counter() - wall_start
        return self.completed


# ---------------------------------------------------------------------------
# run_once, sharded
# ---------------------------------------------------------------------------

@dataclass
class ShardRunResult:
    """A sharded run's snapshot plus its coordination report."""

    metrics: Any
    report: ShardRunReport


def execute_sharded(buffer_config, workload, calibration=None, seed=0,
                    settle=0.020, drain=0.250, max_extends=20,
                    scenario=None, faults=None, *,
                    transport: str = "auto",
                    record_events: bool = False) -> ShardRunResult:
    """One sharded repetition, ended through ``run_once``'s own tail.

    ``run_once`` comes here for a scenario whose shard is active; the
    coordinator's :meth:`~ShardCoordinator.run_until` advances the run
    for :func:`~repro.experiments.runner.finish_run`, and the shards'
    final state lands on the parent replica before its snapshot.
    """
    from ..experiments.runner import finish_run
    from ..faults import install_faults
    from ..scenarios import build_scenario

    if scenario is None or not scenario.shard.is_active:
        raise ValueError("execute_sharded needs a scenario with an "
                         "active ShardSpec (shard.mode != 'off')")
    if transport == "auto":
        transport = "fork" if _fork_available() else "inline"
    if transport not in ("fork", "inline"):
        raise ValueError(f"unknown shard transport {transport!r}; "
                         f"expected 'fork', 'inline' or 'auto'")
    if transport == "fork" and not _fork_available():  # pragma: no cover
        warnings.warn("fork start method unavailable; running shards "
                      "inline in this process", RuntimeWarning,
                      stacklevel=2)
        transport = "inline"

    # The parent's own replica: plan source and graft/snapshot target.
    parent = build_scenario(scenario, buffer_config, workload,
                            calibration=calibration, seed=seed)
    install_faults(parent, faults)
    plan = build_partition_plan(parent, scenario.shard)

    build_args = dict(scenario=scenario, buffer_config=buffer_config,
                      workload=workload, calibration=calibration,
                      seed=seed, faults=faults, settle=settle,
                      record_events=record_events)
    report = ShardRunReport(n_shards=plan.n_shards, transport=transport)
    handles: List[_ShardHandle] = []
    shard_cls = _ForkShard if transport == "fork" else _InlineShard

    def land() -> None:
        """Graft every shard's final state onto the parent replica."""
        states = [handle.collect() for handle in handles]
        wire = TransportStats()
        for handle in handles:
            wire.merge(handle.stats)
        worker_serialize = 0.0
        for state in states:
            worker_side = state.pop("transport")
            worker_serialize += (worker_side["encode_seconds"]
                                 + worker_side["decode_seconds"])
        graft_states(parent, plan, states)
        report.horizon_stalls = sum(s["stalled_rounds"] for s in states)
        report.bytes_total = wire.bytes_out + wire.bytes_in
        report.serialize_seconds = (wire.encode_seconds
                                    + wire.decode_seconds
                                    + worker_serialize)
        if record_events:
            report.events = merged_events(states)
        registry = parent.registry
        registry.counter("shard.rounds_total").inc(report.rounds)
        registry.counter("shard.messages_total").inc(report.messages)
        registry.counter("shard.horizon_stalls_total").inc(
            report.horizon_stalls)
        registry.counter("shard.rounds_coalesced_total").inc(
            report.rounds_coalesced)
        registry.counter("shard.bytes_total").inc(report.bytes_total)
        registry.gauge("shard.serialize_seconds").set(
            report.serialize_seconds)

    try:
        # Handles append one by one so a constructor failure mid-fleet
        # still leaves every already-started worker reachable for kill().
        for i in range(plan.n_shards):
            handles.append(shard_cls(build_args, i))
        coordinator = ShardCoordinator(handles, plan, report)
        metrics = finish_run(parent, workload, coordinator.run_until,
                             settle, drain, max_extends, land=land)
    except BaseException:
        # A dead or wedged worker must not leave siblings blocked in
        # recv: hard-stop the whole fleet first, then let the graceful
        # close in ``finally`` no-op.
        for handle in handles:
            handle.kill()
        raise
    finally:
        for handle in handles:
            handle.close()
    return ShardRunResult(metrics=metrics, report=report)
