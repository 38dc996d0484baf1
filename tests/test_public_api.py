"""Public-API integrity: exports resolve, __all__ is honest, docs exist."""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro

_SUBPACKAGES = ["repro.simkit", "repro.packets", "repro.openflow",
                "repro.netsim", "repro.switchsim", "repro.controllersim",
                "repro.trafficgen", "repro.core", "repro.metrics",
                "repro.scenarios", "repro.experiments", "repro.parallel"]


@pytest.mark.parametrize("name", _SUBPACKAGES)
def test_subpackage_all_entries_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} has no __all__"
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", _SUBPACKAGES)
def test_subpackage_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip()


def test_top_level_exports_resolve():
    for symbol in repro.__all__:
        assert hasattr(repro, symbol)


def test_version_is_set():
    assert repro.__version__


@pytest.mark.parametrize("name", _SUBPACKAGES)
def test_public_classes_and_functions_are_documented(name):
    """Every public callable exported by a subpackage has a docstring."""
    module = importlib.import_module(name)
    undocumented = []
    for symbol in module.__all__:
        obj = getattr(module, symbol)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(symbol)
    assert undocumented == []


def test_public_classes_have_documented_public_methods():
    """Spot-check the core API surface: public methods carry docstrings."""
    from repro.core import (BufferMechanism, FlowGranularityBuffer,
                            PacketGranularityBuffer)
    from repro.openflow import FlowTable, PacketBuffer
    from repro.simkit import ServiceStation, Simulator
    for cls in (BufferMechanism, FlowGranularityBuffer,
                PacketGranularityBuffer, FlowTable, PacketBuffer,
                ServiceStation, Simulator):
        for name, member in inspect.getmembers(cls):
            if name.startswith("_"):
                continue
            if inspect.isfunction(member):
                assert member.__doc__, f"{cls.__name__}.{name} undocumented"


def test_one_buffer_store_serves_both_granularities():
    """The flow-keyed store and its error class are gone: both buffered
    mechanisms and no-buffer hold the one ``PacketBuffer``."""
    import repro.core
    from repro.core import BufferConfig, create_mechanism
    from repro.openflow import PacketBuffer
    from repro.simkit import Simulator
    for name in ("FlowPacketBuffer", "FlowBufferFullError"):
        assert name not in repro.core.__all__
        assert not hasattr(repro.core, name)
    with pytest.raises(ImportError):
        importlib.import_module("repro.core.flow_buffer")
    for mechanism in ("no-buffer", "packet-granularity",
                      "flow-granularity"):
        built = create_mechanism(BufferConfig(mechanism=mechanism),
                                 Simulator())
        assert type(built.buffer) is PacketBuffer


def test_workload_schedule_on_sends_through_host():
    from repro.netsim import Host, Link
    from repro.simkit import RandomStreams, Simulator, mbps
    from repro.trafficgen import single_packet_flows
    sim = Simulator()
    host = Host(sim, "h", "00:00:00:00:00:01", "10.0.0.1")
    link = Link(sim, "l", mbps(100))
    sent = []
    link.connect(sent.append)
    host.attach(link)
    workload = single_packet_flows(mbps(100), n_flows=5,
                                   rng=RandomStreams(70))
    workload.schedule_on(sim, host, start=0.25)
    sim.run()
    assert len(sent) == 5
    assert all(p.created_at >= 0.25 for p in sent)


_AGENT_COUNTERS = {
    "packet_ins_sent": "switch_packet_ins_sent_total",
    "retries_sent": "switch_packet_in_retries_total",
    "flow_mods_applied": "switch_flow_mods_applied_total",
    "packet_outs_applied": "switch_packet_outs_applied_total",
    "errors_sent": "switch_errors_sent_total",
    "flow_removed_sent": "switch_flow_removed_sent_total",
    "buffer_ageout_drops": "switch_buffer_ageout_drops_total",
    "misses_dropped_disconnected": "switch_misses_dropped_disconnected_total",
    "misses_flooded_disconnected": "switch_misses_flooded_disconnected_total",
}
_DATAPATH_COUNTERS = {
    "packets_forwarded": "switch_packets_forwarded_total",
    "packets_missed": "switch_table_misses_total",
    "packets_dropped": "switch_packets_dropped_total",
}
_CONTROLLER_COUNTERS = {
    "packet_ins_handled": "controller_packet_ins_handled_total",
    "flow_mods_sent": "controller_flow_mods_sent_total",
    "packet_outs_sent": "controller_packet_outs_sent_total",
    "errors_received": "controller_errors_received_total",
    "flow_removed_received": "controller_flow_removed_received_total",
}


def test_testbed_holds_only_what_no_switch_holds():
    """No single-switch aliases and no lists that repeat what each
    switch holds (its mechanism, channel and control cable)."""
    import dataclasses
    from repro.scenarios import Testbed
    assert {f.name for f in dataclasses.fields(Testbed)} == {
        "sim", "topology", "hosts", "switches", "controller", "pktgens",
        "metrics", "rng", "registry", "spec", "pool"}
    assert not [name for name, value in vars(Testbed).items()
                if isinstance(value, property)]
    for name in ("host1", "host2", "switch", "channel", "control_cable",
                 "mechanism", "pktgen", "mechanisms", "channels",
                 "control_cables"):
        assert not hasattr(Testbed, name), name


def test_component_counters_are_their_registry_metrics():
    """Agent, datapath and controller counters are the registry's own
    ``Counter`` objects, each named after its metric: one name per count,
    no integer view beside it."""
    from repro.core import BufferConfig
    from repro.experiments import build_testbed
    from repro.obs import Counter
    from repro.simkit import RandomStreams, mbps
    from repro.trafficgen import single_packet_flows
    workload = single_packet_flows(mbps(20), n_flows=2,
                                   rng=RandomStreams(0))
    testbed = build_testbed(BufferConfig(mechanism="flow-granularity"),
                            workload)
    switch = testbed.switches[0]
    for owner, counters, labels in (
            (switch.agent, _AGENT_COUNTERS, {"switch": "ovs"}),
            (switch.datapath, _DATAPATH_COUNTERS, {"switch": "ovs"}),
            (testbed.controller, _CONTROLLER_COUNTERS,
             {"controller": "floodlight"})):
        for attr, metric in counters.items():
            counter = getattr(owner, attr)
            assert type(counter) is Counter, attr
            assert counter.name == metric
            assert testbed.registry.get(metric, **labels) is counter
    assert not hasattr(switch, "flow_table")
    assert not hasattr(switch.datapath, "_drop")
    assert not hasattr(switch.mechanism, "retries_sent")
    testbed.shutdown()


def test_dead_reset_and_registry_surfaces_are_gone():
    """The accounting-reset chain, the span recorder's live-span API and
    the builder registry have no callers and are deleted."""
    import repro.obs
    import repro.scenarios
    from repro.controllersim import Controller
    from repro.netsim import DuplexLink, Host, Link, Topology
    from repro.obs import Counter, Gauge, Histogram, SpanRecorder
    from repro.openflow import ControlChannel
    from repro.simkit import ServiceStation
    from repro.switchsim import AsicCpuBus, Switch, SwitchCpu, SwitchPort
    for cls in (ServiceStation, Link, DuplexLink, Topology, Host,
                SwitchPort, SwitchCpu, AsicCpuBus, Switch, Controller,
                ControlChannel):
        assert not hasattr(cls, "reset_accounting"), cls.__name__
    for cls in (Counter, Gauge, Histogram):
        assert not hasattr(cls, "reset"), cls.__name__
    recorder = SpanRecorder()
    for name in ("begin", "open_spans", "clear", "on_record", "clock"):
        assert not hasattr(recorder, name), name
    assert not hasattr(repro.obs, "Span")
    for name in ("register_builder", "available_shapes"):
        assert not hasattr(repro.scenarios, name), name
