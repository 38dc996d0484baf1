"""Measurement layer: captures, samplers, delay tracking, run snapshots."""

from .asciichart import render_chart
from .capture import AggregateCapture, LinkCapture
from .collector import MetricsSuite, RunMetrics
from .delays import DelayTracker, FlowDelayRecord
from .pcap import (ControlPcapWriter, PcapWriter,
                   write_pcap_header, write_pcap_record)
from .samplers import GaugeSampler, UtilizationSampler
from .series import Summary, TimeSeries, percentile, summarize

__all__ = [
    "AggregateCapture", "LinkCapture", "MetricsSuite", "RunMetrics",
    "render_chart",
    "DelayTracker", "FlowDelayRecord",
    "PcapWriter", "ControlPcapWriter", "write_pcap_header",
    "write_pcap_record",
    "GaugeSampler", "UtilizationSampler",
    "TimeSeries", "Summary", "summarize", "percentile",
]
