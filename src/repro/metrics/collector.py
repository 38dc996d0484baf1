"""One-stop metric collection for a testbed run.

:class:`MetricsSuite` wires captures, samplers and the delay tracker to
a testbed's switches, their control cables and the controller, and
condenses everything into a :class:`RunMetrics` snapshot — the row
format every figure harness consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..controllersim import Controller
from ..simkit import Simulator, to_mbps
from ..switchsim import Switch
from ..trafficgen import FlowSpec
from .capture import AggregateCapture, LinkCapture
from .delays import DelayTracker
from .samplers import GaugeSampler, UtilizationSampler
from .series import Summary, TimeSeries, ordered_sum, summarize


@dataclass
class RunMetrics:
    """Everything one run produces, in figure-ready units."""

    #: Measurement window (seconds of simulated time).
    window: float
    # -- control path load (Fig. 2 / Fig. 9) ---------------------------
    control_load_up_mbps: float
    control_load_down_mbps: float
    packet_in_count: int
    packet_in_retry_count: int
    flow_mod_count: int
    packet_out_count: int
    error_count: int
    # -- CPU usage (Fig. 3-4 / Fig. 10-11) ------------------------------
    controller_usage_percent: float
    switch_usage_percent: float
    controller_usage_series: TimeSeries
    switch_usage_series: TimeSeries
    # -- delays (Fig. 5-7 / Fig. 12), seconds ---------------------------
    setup_delays: List[float]
    controller_delays: List[float]
    switch_delays: List[float]
    forwarding_delays: List[float]
    # -- buffer utilization (Fig. 8 / Fig. 13) --------------------------
    buffer_occupancy_series: TimeSeries
    buffer_peak_units: int
    # -- flow accounting -------------------------------------------------
    packet_ins_per_flow: List[int]
    completed_flows: int
    total_flows: int
    packets_dropped: int
    #: Flows the flow-granularity mechanism gave up on after exhausting
    #: its retry budget (0 for the other mechanisms and healthy runs).
    flows_abandoned: int = 0
    #: True when the run ended with flows still incomplete (the runner's
    #: extend budget ran out or progress stalled): delay statistics then
    #: cover completed flows only.
    incomplete: bool = False
    #: Packets the buffer refused during the run (exhaustion or a pool
    #: policy squeeze), summed across switches.
    buffer_full_rejections: int = 0
    #: Peak occupancy of the run's shared buffer pool (0 when every
    #: switch had a private buffer).  Filled by the runner, which owns
    #: the testbed-level pool handle.
    pool_peak_units: int = 0

    # -- summaries --------------------------------------------------------
    def setup_delay_summary(self) -> Summary:
        """Summary of flow setup delays."""
        return summarize(self.setup_delays)

    def controller_delay_summary(self) -> Summary:
        """Summary of controller delays."""
        return summarize(self.controller_delays)

    def switch_delay_summary(self) -> Summary:
        """Summary of switch delays."""
        return summarize(self.switch_delays)

    def forwarding_delay_summary(self) -> Summary:
        """Summary of flow forwarding delays."""
        return summarize(self.forwarding_delays)

    @property
    def buffer_avg_units(self) -> float:
        """Mean sampled buffer occupancy."""
        return self.buffer_occupancy_series.mean()

    @property
    def buffer_max_units(self) -> float:
        """Peak buffer occupancy (allocation-time peak, not just samples)."""
        return float(self.buffer_peak_units)

    @property
    def redundant_packet_in_ratio(self) -> float:
        """Mean packet_ins per flow (1.0 is the flow-granularity ideal)."""
        if not self.packet_ins_per_flow:
            return 0.0
        return sum(self.packet_ins_per_flow) / len(self.packet_ins_per_flow)


def _merge_series(windows: List[TimeSeries], name: str,
                  combine) -> TimeSeries:
    """Fold per-switch sample series into one, sample by sample.

    All suite samplers tick on the same schedule, so samples align by
    index; the merge is truncated to the shortest series defensively.
    ``combine`` receives one tuple of values per sample, in switch order.
    """
    merged = TimeSeries(name)
    if not windows:
        return merged
    for time, values in zip(windows[0].times,
                            zip(*(w.values for w in windows))):
        merged.add(time, combine(values))
    return merged


def _mean(values) -> float:
    return ordered_sum(values) / len(values)


class MetricsSuite:
    """Attach every probe the paper's figures need to a testbed's switches.

    One suite serves every topology: captures and samplers are per-switch
    lists (in path order), and :meth:`snapshot` folds them into the
    :class:`RunMetrics` row with path-wide semantics: control loads/counts
    sum over every switch's channel, switch usage is the mean across
    switches (each a ``top``-style reading), buffer occupancy and drops
    sum along the path, and the §III.B delays become end-to-end path
    quantities (ingress measured at the first hop, egress at the last,
    control everywhere — see :meth:`DelayTracker.attach`).  With one
    switch every fold is ``0 + v`` or ``v / 1``, so the row is exactly
    the single-switch reading.
    """

    def __init__(self, sim: Simulator, switches: List[Switch],
                 controller: Controller, flows: Dict[int, FlowSpec],
                 sampling_interval: float = 0.020):
        if not switches:
            raise ValueError("need at least one switch")
        self.sim = sim
        self.switches = list(switches)
        self.controller = controller
        # Probe construction order fixes the sequence numbers of the
        # samplers' periodic events; keep it.  Each switch's control
        # cable carries its channel: forward up, reverse down.
        self.captures_up = [
            LinkCapture(switch.agent.channel.cable.forward,
                        name=f"{switch.name}-ctrl-up")
            for switch in switches]
        self.captures_down = [
            LinkCapture(switch.agent.channel.cable.reverse,
                        name=f"{switch.name}-ctrl-down")
            for switch in switches]
        self.capture_up = AggregateCapture(self.captures_up, name="ctrl-up")
        self.capture_down = AggregateCapture(self.captures_down,
                                             name="ctrl-down")
        self.delay_tracker = DelayTracker(flows)
        first, last = switches[0], switches[-1]
        for switch in switches:
            self.delay_tracker.attach(switch.events,
                                      ingress=switch is first,
                                      egress=switch is last,
                                      control=True)
        self.switch_samplers = [
            UtilizationSampler(
                sim, switch.cpu_stations, sampling_interval,
                baseline_percent=switch.config.baseline_usage_percent,
                name=f"{switch.name}-usage")
            for switch in switches]
        self.controller_sampler = UtilizationSampler(
            sim, controller.station, sampling_interval,
            baseline_percent=controller.config.baseline_usage_percent,
            name="controller-usage")
        self.buffer_samplers = [
            GaugeSampler(sim, switch.buffer_occupancy, sampling_interval,
                         name=f"{switch.name}-buffer")
            for switch in switches]
        self._retry_count = 0
        for switch in switches:
            switch.events.on("packet_in_sent", self._count_retry)

    def _count_retry(self, time: float, message) -> None:
        if getattr(message, "is_retry", False):
            self._retry_count += 1

    def stop(self) -> None:
        """Stop all periodic samplers."""
        for sampler in self.switch_samplers:
            sampler.stop()
        self.controller_sampler.stop()
        for sampler in self.buffer_samplers:
            sampler.stop()

    def snapshot(self, start: float, end: float,
                 load_end: Optional[float] = None) -> RunMetrics:
        """Condense everything collected over the active window.

        ``start``/``end`` bound the traffic-active period: CPU usage is
        the mean of the sampled per-window readings inside it, which is
        how ``top`` readings during the paper's tests behave (idle drain
        time is excluded).  Control-path loads are normalized over
        ``[start, load_end]`` — the send window — so a slow post-send
        drain inflates delays (as it should) without *diluting* the load
        figure.  ``load_end`` defaults to ``end``.  Per-switch probes
        fold along the path as documented on the class.
        """
        if end <= start:
            raise ValueError(f"empty window [{start}, {end}]")
        if load_end is None:
            load_end = end
        load_end = min(max(load_end, start + 1e-9), end)
        load_window = load_end - start
        window = end - start
        ctrl_series = self.controller_sampler.series.window(start, end)
        switch_series = _merge_series(
            [s.series.window(start, end) for s in self.switch_samplers],
            "switch-usage", _mean)
        ctrl_usage = (ctrl_series.mean() if len(ctrl_series)
                      else self.controller.usage_percent())
        switch_usage = (switch_series.mean() if len(switch_series)
                        else _mean([s.usage_percent()
                                    for s in self.switches]))
        buffer_series = _merge_series(
            [s.series.window(start, end) for s in self.buffer_samplers],
            "buffer-occupancy", ordered_sum)
        peak = rejections = 0
        for switch in self.switches:
            buffer = switch.mechanism.buffer
            peak += int(buffer.peak_units.value)
            rejections += buffer.full_rejections.value
        return RunMetrics(
            window=window,
            control_load_up_mbps=to_mbps(
                self.capture_up.bytes_within(start, load_end) * 8
                / load_window),
            control_load_down_mbps=to_mbps(
                self.capture_down.bytes_within(start, load_end) * 8
                / load_window),
            packet_in_count=self.capture_up.count("packetin"),
            packet_in_retry_count=self._retry_count,
            flow_mod_count=self.capture_down.count("flowmod"),
            packet_out_count=self.capture_down.count("packetout"),
            error_count=self.capture_up.count("errormsg"),
            controller_usage_percent=ctrl_usage,
            switch_usage_percent=switch_usage,
            controller_usage_series=ctrl_series,
            switch_usage_series=switch_series,
            setup_delays=self.delay_tracker.setup_delays(),
            controller_delays=self.delay_tracker.controller_delays(),
            switch_delays=self.delay_tracker.switch_delays(),
            forwarding_delays=self.delay_tracker.forwarding_delays(),
            buffer_occupancy_series=buffer_series,
            buffer_peak_units=peak,
            packet_ins_per_flow=self.delay_tracker.packet_ins_per_flow(),
            completed_flows=self.delay_tracker.completed_flows,
            total_flows=self.delay_tracker.total_flows,
            packets_dropped=sum(s.datapath.packets_dropped.value
                                for s in self.switches),
            flows_abandoned=sum(s.mechanism.flows_abandoned
                                for s in self.switches),
            incomplete=(self.delay_tracker.completed_flows
                        < self.delay_tracker.total_flows),
            buffer_full_rejections=rejections,
        )


#: The suite's former path-only name; ``perfbench/tracer.py`` imports it.
PathMetricsSuite = MetricsSuite
