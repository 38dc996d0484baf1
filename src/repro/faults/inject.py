"""Fault installation: wire a :class:`FaultSpec` into a built testbed.

The injection point is the control channel's delivery hook
(:meth:`~repro.openflow.channel.ControlChannel.install_fault_filters`):
every message that finishes its wire transit passes through a
:class:`DirectionInjector` which may drop it, duplicate it, or delay it
by a jittered amount before it reaches the bound handler.  Injecting at
*delivery* (not send) keeps the capture-based control-load accounting
honest — a message lost to corruption still burned wire bytes, exactly
what tcpdump on the sender side would show.

Determinism guarantees (the properties the regression tests pin):

* Every random decision draws from a dedicated named substream of the
  testbed's :class:`~repro.simkit.RandomStreams`
  (``faults.<switch>.up`` / ``.down``), so enabling faults never
  perturbs the draws seen by existing consumers (workload jitter, CPU
  noise), and identical ``(seed, FaultSpec)`` pairs replay the same
  fault sequence in any process.
* The draw pattern per message is fixed by the spec alone — one drop
  draw when loss is configured, one duplication draw when duplication
  is, one jitter draw per delivered copy — never by earlier outcomes.
* A null spec installs nothing: the channel's fast path is untouched
  and default runs stay bit-identical to the faultless code path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .spec import FaultSpec

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    import random

    from ..obs.registry import MetricsRegistry
    from ..simkit import Simulator


class DirectionInjector:
    """Per-direction fault filter over one control channel.

    Instances are callables matching the channel's
    ``FaultFilter`` protocol: ``(message, deliver) -> None``.
    """

    def __init__(self, sim: "Simulator", rng: "random.Random",
                 spec: FaultSpec, direction: str,
                 registry: "MetricsRegistry",
                 on_fault: Optional[Callable[..., None]] = None,
                 **labels: object):
        if direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', "
                             f"got {direction!r}")
        self.sim = sim
        self.rng = rng
        self.spec = spec
        self.direction = direction
        self.drop_p = spec.loss_up if direction == "up" else spec.loss_down
        self.dup_p = spec.dup_up if direction == "up" else spec.dup_down
        self.jitter = (spec.jitter_up if direction == "up"
                       else spec.jitter_down)
        self._on_fault = on_fault
        labels = dict(labels, direction=direction)
        self.dropped = registry.counter("faults_dropped_total", **labels)
        self.duplicated = registry.counter(
            "faults_duplicated_total", **labels)
        self.delayed = registry.counter("faults_delayed_total", **labels)
        self.stall_dropped = registry.counter(
            "faults_stall_dropped_total", **labels)

    def _emit(self, kind: str, message) -> None:
        if self._on_fault is not None:
            self._on_fault(self.sim.now, kind, self.direction, message)

    def __call__(self, message, deliver) -> None:
        now = self.sim.now
        if self.spec.stalled_at(now):
            # The controller is down: the connection eats the message.
            self.stall_dropped.inc()
            self._emit("stall_dropped", message)
            return
        # Fixed draw order per message (drop, duplicate, jitter-per-copy)
        # keeps the stream deterministic for a given spec.
        if self.drop_p > 0 and self.rng.random() < self.drop_p:
            self.dropped.inc()
            self._emit("dropped", message)
            return
        copies = 1
        if self.dup_p > 0 and self.rng.random() < self.dup_p:
            copies = 2
            self.duplicated.inc()
            self._emit("duplicated", message)
        for _ in range(copies):
            if self.jitter > 0:
                delay = self.rng.random() * self.jitter
                self.delayed.inc()
                self.sim.schedule(delay, deliver, message)
            else:
                deliver(message)


def install_faults(testbed, spec: Optional[FaultSpec]) -> None:
    """Arm ``spec``'s faults on every control channel of ``testbed``.

    Must run after ``build_scenario`` and before traffic starts.  A
    ``None`` or null spec is a no-op — the testbed is left exactly as
    built, which is what keeps faultless sweeps bit-identical to the
    golden pre-faults results.

    Channel faults (loss, duplication, jitter, stall windows) install a
    :class:`DirectionInjector` pair per switch; forced ageout pressure
    re-arms every switch agent's ageout sweep via
    :meth:`~repro.switchsim.agent.OpenFlowAgent.force_buffer_ageout`.
    Injected faults surface as ``faults_*_total`` registry counters
    (per switch and direction) and as ``fault_injected`` events on the
    owning switch's emitter, which the obs tracer records as instant
    spans.
    """
    if spec is None or spec.is_null:
        return
    registry = testbed.registry
    channel_faults = (
        spec.loss_up or spec.loss_down or spec.dup_up or spec.dup_down
        or spec.jitter_up or spec.jitter_down or spec.stall_windows)
    for switch in testbed.switches:
        if channel_faults:
            events = switch.events

            def on_fault(time, kind, direction, message, _events=events):
                _events.emit("fault_injected", time, kind, direction,
                             message)

            up = DirectionInjector(
                testbed.sim, testbed.rng.stream(f"faults.{switch.name}.up"),
                spec, "up", registry, on_fault=on_fault, switch=switch.name)
            down = DirectionInjector(
                testbed.sim,
                testbed.rng.stream(f"faults.{switch.name}.down"),
                spec, "down", registry, on_fault=on_fault,
                switch=switch.name)
            switch.agent.channel.install_fault_filters(to_controller=up,
                                                       to_switch=down)
        if spec.ageout is not None:
            switch.agent.force_buffer_ageout(
                spec.ageout, interval=spec.ageout_interval)
