"""The switch CPU: a multi-core station shared by datapath and agent work.

Everything the software switch does — datapath upcall processing, building
``packet_in`` messages, parsing ``flow_mod``/``packet_out``, buffer
bookkeeping — competes for these cores, which is the paper's point about
"concurrent switch activities competing for the limited resources of the
switch" (§III.A reason 3).

A constant baseline load models OVS's polling threads; reported usage is
baseline + measured busy time, matching how ``top`` saw the paper's switch
at 260–275 %.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..simkit import ServiceStation, Simulator
from .config import SwitchConfig


class SwitchCpu:
    """Multi-core CPU with baseline polling load and batch discounting."""

    def __init__(self, sim: Simulator, config: SwitchConfig,
                 name: str = "switch-cpu"):
        self.sim = sim
        self.config = config
        self.station = ServiceStation(sim, name, servers=config.cpu_cores)

    def execute(self, cost: float,
                on_done: Optional[Callable[[Any], None]] = None,
                payload: Any = None) -> None:
        """Run ``cost`` seconds of CPU work, then ``on_done(payload)``."""
        self.station.submit(payload, cost, on_done)

    def execute_datapath(self, cost: float,
                         on_done: Optional[Callable[[Any], None]] = None,
                         payload: Any = None) -> None:
        """Datapath work with the batching discount applied.

        When upcalls pile up, OVS amortizes per-packet overhead across the
        batch; the discount scales the cost toward ``dp_batch_floor`` as
        the backlog grows, producing the concave switch-usage curve of
        Fig. 4.
        """
        station = self.station
        floor = self.config.dp_batch_floor
        effective = cost * (floor + (1.0 - floor) / (1.0 + station.backlog))
        station.submit(payload, effective, on_done)

    def usage_percent(self) -> float:
        """Reported CPU usage: baseline polling load + measured busy time."""
        return (self.config.baseline_usage_percent
                + self.station.utilization_percent())

    @property
    def backlog(self) -> int:
        """Jobs queued or in service."""
        return self.station.backlog
