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
