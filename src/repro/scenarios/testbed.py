"""The common testbed bundle every scenario builder returns.

One :class:`Testbed` shape serves every topology: components that can
multiply (hosts, switches, packet generators) are lists, and the
testbed holds only what no switch holds itself.  A switch's buffer
mechanism is ``switch.mechanism``, its control channel
``switch.agent.channel`` and that channel's cable
``switch.agent.channel.cable``.  The runner
(:func:`repro.experiments.runner.run_once`), the metrics suite and the
observers (:mod:`repro.obs`) all consume this protocol and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..controllersim import Controller
    from ..metrics import MetricsSuite
    from ..netsim import Host, Topology
    from ..obs.registry import MetricsRegistry
    from ..simkit import RandomStreams, Simulator
    from ..switchsim import Switch
    from ..trafficgen import PacketGenerator
    from .spec import ScenarioSpec


@dataclass
class Testbed:
    """Everything a run needs, fully wired, for any topology shape.

    ``hosts`` lists every traffic source first and the egress host last;
    ``switches`` follow the data path from source side to egress side.
    """

    #: Not a pytest test class, despite the Test- prefix.
    __test__ = False

    sim: "Simulator"
    topology: "Topology"
    hosts: List["Host"]
    switches: List["Switch"]
    controller: "Controller"
    pktgens: List["PacketGenerator"]
    metrics: "MetricsSuite"
    rng: "RandomStreams"
    #: Shared registry holding every component's counters/gauges;
    #: ``repro.obs`` snapshots it at the end of a run.
    registry: Optional["MetricsRegistry"] = None
    #: The spec this testbed was built from (None for hand-wired ones).
    spec: Optional["ScenarioSpec"] = field(default=None)
    #: The run's shared buffer pool (a
    #: :class:`~repro.bufferpool.SharedBufferPool`), or ``None`` when
    #: every switch keeps a private buffer.
    pool: Optional[Any] = field(default=None)

    # ------------------------------------------------------------------
    # Path-wide accounting
    # ------------------------------------------------------------------
    def packet_ins_per_switch(self) -> List[int]:
        """Requests each switch generated, in path order."""
        return [switch.agent.packet_ins_sent.value
                for switch in self.switches]

    def total_packet_ins(self) -> int:
        """Requests across the whole path."""
        return sum(self.packet_ins_per_switch())

    def total_control_bytes(self) -> int:
        """Control-path bytes across every channel, both directions."""
        return (self.metrics.capture_up.bytes_total
                + self.metrics.capture_down.bytes_total)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """End the run: stop periodic work, then unwire what the build wired.

        Every run ends here (:func:`repro.experiments.runner.finish_run`,
        and each shard replica at collect).  The build wires components
        to each other through callbacks — queued simulator calls, link
        receivers and taps, channel handlers, emitter listeners — and
        each callback closes a reference cycle.  Dropping them all
        leaves a graph without cycles, so when the last holder lets go
        of a finished testbed, reference counting frees it at once and
        the cyclic collector never has to find it (DESIGN.md §23).
        Counters, captures, delay records, series and tables stay
        readable; running the simulator again only moves its clock.
        """
        self.metrics.stop()
        for switch in self.switches:
            switch.shutdown()
        self.controller.shutdown()
        self.sim.clear()
        for _ends, cable in self.topology.cables():
            cable.forward.unwire()
            cable.reverse.unwire()
        for switch in self.switches:
            switch.unwire()
        self.controller.unwire()
        if self.pool is not None:
            self.pool.events.clear()
