"""Assembly of the complete software switch (the testbed's OVS analogue)."""

from __future__ import annotations

from typing import Optional

from ..core import BufferMechanism, FlowGranularityBuffer
from ..netsim import DuplexLink
from ..obs.registry import MetricsRegistry, label_set
from ..openflow import ControlChannel
from ..simkit import EventEmitter, Simulator
from .agent import OpenFlowAgent
from .bus import AsicCpuBus
from .config import SwitchConfig
from .cpu import SwitchCpu
from .datapath import Datapath
from .ports import SwitchPort


class Switch:
    """A software OpenFlow switch: CPU + bus + datapath + agent.

    Wiring order matters: construct the switch, add ports with
    :meth:`attach_port`, and hand it a control channel at construction.
    The events emitter publishes every observable the metrics layer needs
    (``packet_ingress``, ``table_miss``, ``packet_in_sent``,
    ``reply_arrived``, ``packet_egress``, ``buffer_stored``, ...).
    """

    def __init__(self, sim: Simulator, config: SwitchConfig,
                 mechanism: BufferMechanism, channel: ControlChannel,
                 name: str = "ovs", datapath_id: int = 1,
                 registry: Optional[MetricsRegistry] = None):
        self.sim = sim
        self.config = config
        self.name = name
        self.datapath_id = datapath_id
        self.mechanism = mechanism
        self.events = EventEmitter()
        #: The run's metrics registry (a private one when none is shared);
        #: datapath/agent counters live here, labelled by switch name.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.cpu = SwitchCpu(sim, config, name=f"{name}-cpu")
        self.bus = AsicCpuBus(sim, config.bus_bandwidth_bps,
                              name=f"{name}-bus")
        self.datapath = Datapath(sim, config, self.cpu, self.events,
                                 registry=self.registry, switch=name)
        self.agent = OpenFlowAgent(sim, config, self.cpu, self.bus,
                                   self.datapath, mechanism, channel,
                                   self.events, datapath_id=datapath_id,
                                   registry=self.registry, switch=name)
        # The mechanism's unit store exists below this layer; adopt its
        # standalone metrics into the run's registry.  The store creates
        # them unlabeled (it does not know its switch), so label them
        # here — like the datapath/agent counters — which also keeps
        # per-switch buffers distinct in a shared registry.
        for metric in mechanism.buffer.metrics():
            if not metric.labels:
                metric.labels = label_set({"switch": name})
            self.registry.register(metric)

    def attach_port(self, port_no: int, cable: DuplexLink,
                    switch_side_forward: bool = True) -> SwitchPort:
        """Create port ``port_no`` on ``cable``.

        ``switch_side_forward`` selects which direction of the duplex cable
        carries switch-egress traffic: ``True`` means the switch transmits
        on ``cable.forward`` and receives on ``cable.reverse``.
        """
        port = SwitchPort(self.sim, port_no, name=f"{self.name}-p{port_no}")
        if switch_side_forward:
            egress, ingress = cable.forward, cable.reverse
        else:
            egress, ingress = cable.reverse, cable.forward
        port.attach_egress(egress)
        port.wire_ingress(ingress, self.datapath.ingress)
        self.datapath.add_port(port)
        return port

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def usage_percent(self) -> float:
        """CPU usage as the paper reports it (baseline + busy time).

        Includes the connection-handler (apply) thread, which burns a core
        like any other ovs-vswitchd thread.
        """
        return (self.cpu.usage_percent()
                + self.agent.apply_station.utilization_percent())

    @property
    def cpu_stations(self) -> tuple:
        """Every station whose busy time counts as switch CPU."""
        return (self.cpu.station, self.agent.apply_station)

    def buffer_occupancy(self, now: float) -> int:
        """Buffer units unavailable at ``now``."""
        return self.mechanism.occupancy(now)

    def shutdown(self) -> None:
        """Cancel periodic work and mechanism timers (end of run)."""
        self.datapath.shutdown()
        self.agent.shutdown()
        self.mechanism.shutdown()

    def unwire(self) -> None:
        """Drop every callback the build wired into this switch.

        The run's teardown (:meth:`repro.scenarios.Testbed.shutdown`):
        listeners, the control channel's handlers, the datapath's agent,
        the mechanism's retry sender and the stations' completion
        callbacks all lead back into the switch.  Counters, tables and
        buffers stay readable.
        """
        self.events.clear()
        self.agent.channel.unwire()
        self.datapath.unwire()
        if isinstance(self.mechanism, FlowGranularityBuffer):
            self.mechanism.set_retry_sender(None)
        for station in self.cpu_stations + (self.bus.station,):
            station.unwire()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Switch({self.name!r}, mechanism={self.mechanism.name}, "
                f"ports={sorted(self.datapath.ports)})")
