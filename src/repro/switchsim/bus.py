"""The ASIC↔CPU management bus.

He et al. [8, 9] (which the paper builds on) identify the bus between the
forwarding ASIC and the switch CPU as the chokepoint for control-plane
message generation and execution.  Without a buffer, every miss-match
frame crosses this bus twice — up inside the ``packet_in`` and down inside
the ``packet_out`` — so at a ~75 Mbps sending rate the bus saturates and
switch delay blows up (paper Fig. 7).  With the buffer only small
descriptors cross.

Modelled as a single shared serial channel (one transfer at a time, both
directions contending), which is how low-speed management buses behave.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..simkit import ServiceStation, Simulator, transmission_delay


class AsicCpuBus:
    """Shared serial bus between the datapath and the switch CPU."""

    def __init__(self, sim: Simulator, bandwidth_bps: float,
                 name: str = "asic-cpu-bus"):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.station = ServiceStation(sim, name, servers=1)
        #: Cumulative bytes moved in each direction.
        self.bytes_up = 0      # datapath -> CPU (packet_in path)
        self.bytes_down = 0    # CPU -> datapath (flow_mod / packet_out path)

    def transfer_up(self, size_bytes: int,
                    on_done: Optional[Callable[[Any], None]] = None,
                    payload: Any = None) -> None:
        """Move ``size_bytes`` from the ASIC to the CPU."""
        if size_bytes <= 0:
            raise ValueError(f"size must be positive, got {size_bytes}")
        self.bytes_up += size_bytes
        self.station.submit(
            payload, transmission_delay(size_bytes, self.bandwidth_bps),
            on_done)

    def transfer_down(self, size_bytes: int,
                      on_done: Optional[Callable[[Any], None]] = None,
                      payload: Any = None) -> None:
        """Move ``size_bytes`` from the CPU to the ASIC."""
        if size_bytes <= 0:
            raise ValueError(f"size must be positive, got {size_bytes}")
        self.bytes_down += size_bytes
        self.station.submit(
            payload, transmission_delay(size_bytes, self.bandwidth_bps),
            on_done)

    @property
    def backlog(self) -> int:
        """Transfers queued or in progress."""
        return self.station.backlog

    def utilization_percent(self) -> float:
        """Share of time the bus spent transferring, in percent."""
        return self.station.utilization_percent()
