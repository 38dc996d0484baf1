"""The common testbed bundle every scenario builder returns.

One :class:`Testbed` shape serves every topology: components that can
multiply (switches, hosts, control channels, packet generators) are
lists, and the historical single-switch attribute surface (``switch``,
``host1``, ``pktgen``, ...) is preserved as properties so existing
harness code, tests and examples keep working unchanged.  The runner
(:func:`repro.experiments.runner.run_once`), the metrics suite and the
observers (:mod:`repro.obs`) all consume this protocol and nothing else
— which is what makes a new topology a one-builder plugin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..controllersim import Controller
    from ..core import BufferMechanism
    from ..metrics import MetricsSuite
    from ..netsim import DuplexLink, Host, Topology
    from ..obs.registry import MetricsRegistry
    from ..openflow import ControlChannel
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
    channels: List["ControlChannel"]
    control_cables: List["DuplexLink"]
    mechanisms: List["BufferMechanism"]
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
    # Single-switch compatibility surface
    # ------------------------------------------------------------------
    @property
    def host1(self) -> "Host":
        """The (first) traffic-source host."""
        return self.hosts[0]

    @property
    def host2(self) -> "Host":
        """The egress host."""
        return self.hosts[-1]

    @property
    def switch(self) -> "Switch":
        """The first switch on the data path."""
        return self.switches[0]

    @property
    def channel(self) -> "ControlChannel":
        """The first switch's control channel."""
        return self.channels[0]

    @property
    def control_cable(self) -> "DuplexLink":
        """The first switch's control cable."""
        return self.control_cables[0]

    @property
    def mechanism(self) -> "BufferMechanism":
        """The first switch's buffer mechanism."""
        return self.mechanisms[0]

    @property
    def pktgen(self) -> "PacketGenerator":
        """The (first) packet generator."""
        return self.pktgens[0]

    # ------------------------------------------------------------------
    # Path-wide accounting
    # ------------------------------------------------------------------
    def packet_ins_per_switch(self) -> List[int]:
        """Requests each switch generated, in path order."""
        return [switch.agent.packet_ins_sent for switch in self.switches]

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
        """Stop samplers and periodic component work."""
        self.metrics.stop()
        for switch in self.switches:
            switch.shutdown()
        self.controller.shutdown()
