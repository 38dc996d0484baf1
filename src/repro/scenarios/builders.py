"""Scenario builders: shape name → fully wired :class:`Testbed`.

Each builder owns the wiring of one topology shape;
:func:`build_scenario` dispatches a
:class:`~repro.scenarios.spec.ScenarioSpec` to the one its shape names
(:data:`~repro.scenarios.spec.SHAPES`).  The runner, parallel engine,
cache, observers and CLI all consume the spec and the returned
:class:`~repro.scenarios.testbed.Testbed` protocol, never the builder.

The ``single`` builder reproduces the paper's Fig. 1 testbed with the
exact historical wiring order, so default sweeps through the scenario
layer stay bit-identical to the pre-scenario code path (a golden test
pins this).
"""

from __future__ import annotations

import dataclasses
from typing import List

from ..bufferpool import SCOPE_PORT, build_pool
from ..controllersim import Controller, HostLocator, ReactiveForwardingApp
from ..core import BufferConfig, create_mechanism
from ..metrics import MetricsSuite
from ..netsim import Host, Topology
from ..obs.registry import MetricsRegistry
from ..openflow import ControlChannel
from ..simkit import RandomStreams, Simulator
from ..switchsim import Switch
from ..trafficgen import (HOST1_IP, HOST1_MAC, HOST2_IP, HOST2_MAC,
                          AggregateWorkload, PacketGenerator, Workload)
from .spec import ScenarioSpec
from .testbed import Testbed

#: Port numbering of the Fig. 1 switch.
PORT_HOST1 = 1
PORT_HOST2 = 2

#: Port conventions on every line switch: 1 faces host1, 2 faces host2.
PORT_TOWARD_HOST1 = 1
PORT_TOWARD_HOST2 = 2


def _resolve_calibration(spec: ScenarioSpec, calibration):
    """An explicit calibration object wins; else resolve the spec's name."""
    if calibration is not None:
        return calibration
    # Lazy import: repro.experiments imports repro.scenarios at package
    # load, so the reverse edge must stay function-local.
    from ..experiments.calibration import (default_calibration,
                                           prototype_calibration)
    factories = {"default": default_calibration,
                 "prototype": prototype_calibration}
    try:
        return factories[spec.calibration]()
    except KeyError:
        raise ValueError(
            f"unknown calibration {spec.calibration!r}; "
            f"known: {sorted(factories)}") from None


def _switch_config(spec: ScenarioSpec, cal, datapath_id: int):
    """The calibration's SwitchConfig with this datapath's overrides."""
    overrides = spec.override_for(datapath_id)
    if not overrides:
        return cal.switch
    return dataclasses.replace(cal.switch, **overrides)


def _scenario_pool(spec: ScenarioSpec, buffer_config: BufferConfig,
                   n_switches: int, ports_per_switch: int,
                   registry: MetricsRegistry):
    """The run's shared pool (or ``None``) plus per-mechanism kwargs.

    The pool budget defaults to the private aggregate
    (``capacity × n_switches``); ``ports_per_switch`` counts the data
    ports so port-scoped partitions split quotas the way the real ASIC
    would (one partition per ingress).
    """
    pool = build_pool(spec.pool, buffer_config.capacity, n_switches,
                      ports_per_switch=ports_per_switch, registry=registry)
    per_port = pool is not None and spec.pool.scope == SCOPE_PORT
    return pool, per_port


def build_scenario(spec: ScenarioSpec, buffer_config: BufferConfig,
                   workload: Workload, calibration=None, seed: int = 0,
                   sampling_interval: float = 0.010) -> Testbed:
    """Build the testbed ``spec`` describes, around one workload.

    ``calibration`` (a
    :class:`~repro.experiments.calibration.TestbedCalibration`) overrides
    the spec's named calibration when given — the runner threads its own
    argument through here unchanged.
    """
    cal = _resolve_calibration(spec, calibration)
    return _BUILDERS[spec.shape](spec, buffer_config, workload, cal, seed,
                                 sampling_interval)


# ---------------------------------------------------------------------------
# single — the paper's Fig. 1 testbed
# ---------------------------------------------------------------------------

def build_single(spec: ScenarioSpec, buffer_config: BufferConfig,
                 workload: Workload, cal, seed: int,
                 sampling_interval: float) -> Testbed:
    """host1 — switch — controller/host2: the paper's Fig. 1 testbed."""
    sim = Simulator()
    rng = RandomStreams(seed)
    topo = Topology(sim)

    host1 = topo.add_node("host1", Host(sim, "host1", HOST1_MAC, HOST1_IP))
    host2 = topo.add_node("host2", Host(sim, "host2", HOST2_MAC, HOST2_IP))
    topo.add_node("ovs", None)          # placeholder until switch exists
    topo.add_node("controller", None)

    cable_h1 = topo.add_cable("host1", "ovs", cal.data_link_rate_bps,
                              cal.link_propagation_delay)
    cable_h2 = topo.add_cable("host2", "ovs", cal.data_link_rate_bps,
                              cal.link_propagation_delay)
    cable_ctrl = topo.add_cable("ovs", "controller",
                                cal.control_link_rate_bps,
                                cal.link_propagation_delay)

    registry = MetricsRegistry()
    pool, per_port = _scenario_pool(spec, buffer_config, n_switches=1,
                                    ports_per_switch=2, registry=registry)
    mechanism = create_mechanism(buffer_config, sim, pool=pool,
                                 partition="ovs",
                                 per_port_partitions=per_port)
    channel = ControlChannel(sim, cable_ctrl)
    switch = Switch(sim, _switch_config(spec, cal, 1), mechanism, channel,
                    name="ovs", registry=registry)
    # Cable orientation: forward = host -> switch.
    switch.attach_port(PORT_HOST1, cable_h1, switch_side_forward=False)
    switch.attach_port(PORT_HOST2, cable_h2, switch_side_forward=False)
    host1.attach(cable_h1.forward)
    cable_h1.reverse.connect(host1.receive)
    host2.attach(cable_h2.forward)
    cable_h2.reverse.connect(host2.receive)

    locator = HostLocator()
    locator.provision(PORT_HOST1, mac=HOST1_MAC, ip=HOST1_IP)
    locator.provision(PORT_HOST2, mac=HOST2_MAC, ip=HOST2_IP)
    app = ReactiveForwardingApp(
        locator=locator,
        idle_timeout=cal.controller.flow_idle_timeout,
        hard_timeout=cal.controller.flow_hard_timeout)
    controller = Controller(sim, cal.controller, app=app,
                            registry=registry)
    controller.attach_channel(channel, datapath_id=1)

    pktgen = PacketGenerator(sim, host1, workload)
    metrics = MetricsSuite(sim, [switch], controller, workload.flows,
                           sampling_interval=sampling_interval)

    # Replace the placeholders now that the real objects exist.
    topo.replace_node("ovs", switch)
    topo.replace_node("controller", controller)

    return Testbed(sim=sim, topology=topo, hosts=[host1, host2],
                   switches=[switch], controller=controller,
                   pktgens=[pktgen], metrics=metrics, rng=rng,
                   registry=registry, spec=spec, pool=pool)


# ---------------------------------------------------------------------------
# line — host1 — s1 — ... — sN — host2, one shared controller
# ---------------------------------------------------------------------------

def build_line(spec: ScenarioSpec, buffer_config: BufferConfig,
               workload: Workload, cal, seed: int,
               sampling_interval: float) -> Testbed:
    """An n-switch path where every hop misses each new flow once."""
    n_switches = spec.n_switches
    sim = Simulator()
    rng = RandomStreams(seed)
    topo = Topology(sim)

    host1 = topo.add_node("host1", Host(sim, "host1", HOST1_MAC, HOST1_IP))
    host2 = topo.add_node("host2", Host(sim, "host2", HOST2_MAC, HOST2_IP))
    switch_names = [f"s{i + 1}" for i in range(n_switches)]
    for name in switch_names:
        topo.add_node(name, None)
    topo.add_node("controller", None)

    # Data cables along the line: host1-s1, s1-s2, ..., sN-host2.
    # Orientation: forward = toward host2.
    hop_names = ["host1"] + switch_names + ["host2"]
    data_cables = [topo.add_cable(a, b, cal.data_link_rate_bps,
                                  cal.link_propagation_delay)
                   for a, b in zip(hop_names, hop_names[1:])]

    locator = HostLocator()
    app = ReactiveForwardingApp(
        locator=locator, idle_timeout=cal.controller.flow_idle_timeout,
        hard_timeout=cal.controller.flow_hard_timeout)
    registry = MetricsRegistry()
    controller = Controller(sim, cal.controller, app=app,
                            registry=registry)
    pool, per_port = _scenario_pool(spec, buffer_config,
                                    n_switches=n_switches,
                                    ports_per_switch=2, registry=registry)

    switches: List[Switch] = []
    for index, name in enumerate(switch_names):
        dpid = index + 1
        ctrl_cable = topo.add_cable(name, "controller",
                                    cal.control_link_rate_bps,
                                    cal.link_propagation_delay)
        channel = ControlChannel(sim, ctrl_cable)
        mechanism = create_mechanism(buffer_config, sim, pool=pool,
                                     partition=name,
                                     per_port_partitions=per_port)
        switch = Switch(sim, _switch_config(spec, cal, dpid), mechanism,
                        channel, name=name, datapath_id=dpid,
                        registry=registry)
        # Left cable: forward direction flows toward host2, so the
        # switch receives on forward and transmits back on reverse.
        left, right = data_cables[index], data_cables[index + 1]
        switch.attach_port(PORT_TOWARD_HOST1, left,
                           switch_side_forward=False)
        # Right cable: the switch transmits toward host2 on forward.
        switch.attach_port(PORT_TOWARD_HOST2, right,
                           switch_side_forward=True)
        controller.attach_channel(channel, datapath_id=dpid)
        # Location knowledge: on every switch, host1 is out port 1 and
        # host2 out port 2 (it's a line).
        locator.provision(PORT_TOWARD_HOST1, mac=HOST1_MAC, ip=HOST1_IP,
                          datapath_id=dpid)
        locator.provision(PORT_TOWARD_HOST2, mac=HOST2_MAC, ip=HOST2_IP,
                          datapath_id=dpid)
        switches.append(topo.replace_node(name, switch))

    host1.attach(data_cables[0].forward)
    data_cables[0].reverse.connect(host1.receive)
    host2.attach(data_cables[-1].reverse)
    data_cables[-1].forward.connect(host2.receive)
    topo.replace_node("controller", controller)

    pktgen = PacketGenerator(sim, host1, workload)
    metrics = MetricsSuite(sim, switches, controller, workload.flows,
                           sampling_interval=sampling_interval)

    return Testbed(sim=sim, topology=topo, hosts=[host1, host2],
                   switches=switches, controller=controller,
                   pktgens=[pktgen], metrics=metrics, rng=rng,
                   registry=registry, spec=spec, pool=pool)


# ---------------------------------------------------------------------------
# fanin — k source hosts converging through one switch onto one egress
# ---------------------------------------------------------------------------

def shard_workload(workload: Workload, n_shards: int) -> List[Workload]:
    """Split a workload across sources, keeping each flow on one source.

    Entries are assigned by ``flow_id % n_shards`` so a flow's packets
    always leave the same host (no reordering within a flow); offsets are
    preserved, so the union of the shards replays the original schedule.
    The shards of an :class:`~repro.trafficgen.AggregateWorkload` are
    aggregate too: each keeps its flows' lazy tails and counts its own
    logical packets and duration.
    """
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    shards = [type(workload)(name=f"{workload.name}/shard{i + 1}")
              for i in range(n_shards)]
    for offset, packet in workload.entries:
        index = (packet.flow_id or 0) % n_shards
        shards[index].entries.append((offset, packet))
    for flow_id, flow_spec in workload.flows.items():
        shards[flow_id % n_shards].flows[flow_id] = flow_spec
    if isinstance(workload, AggregateWorkload):
        for flow_id, tail in workload.tails.items():
            shards[flow_id % n_shards].tails[flow_id] = tail
        for shard in shards:
            tails = [times for _template, times in shard.tails.values()
                     if len(times)]
            shard.logical_packets = (len(shard.entries)
                                     + sum(len(times) for times in tails))
            shard.logical_duration = max(
                [shard.entries[-1][0] if shard.entries else 0.0]
                + [times[-1] for times in tails])
    return shards


def build_fanin(spec: ScenarioSpec, buffer_config: BufferConfig,
                workload: Workload, cal, seed: int,
                sampling_interval: float) -> Testbed:
    """srcs 1..k — switch — host2: incast-style converging flow arrivals.

    The workload is sharded by flow across the sources (see
    :func:`shard_workload`); the switch sees the same packet train as
    the single testbed, arriving on k ingress ports instead of one.
    """
    n_sources = spec.n_sources
    egress_port = n_sources + 1
    sim = Simulator()
    rng = RandomStreams(seed)
    topo = Topology(sim)

    sources: List[Host] = []
    for index in range(n_sources):
        name = f"src{index + 1}"
        mac = f"02:00:00:00:00:{index + 1:02x}"
        ip = f"10.0.1.{index + 1}"
        sources.append(topo.add_node(name, Host(sim, name, mac, ip)))
    host2 = topo.add_node("host2", Host(sim, "host2", HOST2_MAC, HOST2_IP))
    topo.add_node("ovs", None)
    topo.add_node("controller", None)

    src_cables = [topo.add_cable(f"src{i + 1}", "ovs",
                                 cal.data_link_rate_bps,
                                 cal.link_propagation_delay)
                  for i in range(n_sources)]
    cable_egress = topo.add_cable("ovs", "host2", cal.data_link_rate_bps,
                                  cal.link_propagation_delay)
    cable_ctrl = topo.add_cable("ovs", "controller",
                                cal.control_link_rate_bps,
                                cal.link_propagation_delay)

    registry = MetricsRegistry()
    pool, per_port = _scenario_pool(spec, buffer_config, n_switches=1,
                                    ports_per_switch=n_sources + 1,
                                    registry=registry)
    mechanism = create_mechanism(buffer_config, sim, pool=pool,
                                 partition="ovs",
                                 per_port_partitions=per_port)
    channel = ControlChannel(sim, cable_ctrl)
    switch = Switch(sim, _switch_config(spec, cal, 1), mechanism, channel,
                    name="ovs", registry=registry)
    for port, (source, cable) in enumerate(zip(sources, src_cables),
                                           start=1):
        switch.attach_port(port, cable, switch_side_forward=False)
        source.attach(cable.forward)
        cable.reverse.connect(source.receive)
    # Egress cable: the switch transmits toward host2 on forward.
    switch.attach_port(egress_port, cable_egress, switch_side_forward=True)
    cable_egress.forward.connect(host2.receive)
    host2.attach(cable_egress.reverse)

    locator = HostLocator()
    for port, source in enumerate(sources, start=1):
        locator.provision(port, mac=source.mac, ip=source.ip)
    locator.provision(egress_port, mac=HOST2_MAC, ip=HOST2_IP)
    app = ReactiveForwardingApp(
        locator=locator,
        idle_timeout=cal.controller.flow_idle_timeout,
        hard_timeout=cal.controller.flow_hard_timeout)
    controller = Controller(sim, cal.controller, app=app,
                            registry=registry)
    controller.attach_channel(channel, datapath_id=1)

    pktgens = [PacketGenerator(sim, source, shard,
                               name=f"pktgen-{source.name}")
               for source, shard in zip(sources,
                                        shard_workload(workload,
                                                       n_sources))]
    metrics = MetricsSuite(sim, [switch], controller, workload.flows,
                           sampling_interval=sampling_interval)

    topo.replace_node("ovs", switch)
    topo.replace_node("controller", controller)

    return Testbed(sim=sim, topology=topo, hosts=sources + [host2],
                   switches=[switch], controller=controller,
                   pktgens=pktgens, metrics=metrics, rng=rng,
                   registry=registry, spec=spec, pool=pool)


#: One builder per shape in :data:`~repro.scenarios.spec.SHAPES`.
_BUILDERS = {"single": build_single, "line": build_line,
             "fanin": build_fanin}


def build_testbed(buffer_config: BufferConfig, workload: Workload,
                  calibration=None, seed: int = 0,
                  sampling_interval: float = 0.010) -> Testbed:
    """Build the Fig. 1 testbed around ``workload`` and ``buffer_config``.

    Historical entry point, now a thin wrapper over the ``single``
    scenario builder.
    """
    from .spec import SINGLE
    return build_scenario(SINGLE, buffer_config, workload,
                          calibration=calibration, seed=seed,
                          sampling_interval=sampling_interval)
