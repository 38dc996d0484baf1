"""Scenario wiring: one function builds the testbed of every shape.

Every shape in :data:`~repro.scenarios.spec.SHAPES` repeats the paper's
Fig. 1 node (host1 — OVS — host2, a controller on its own link):
K sources → s1 → … → sN → host2 under one shared controller.
``single`` is 1×1, ``line:N`` is N×1 and ``fanin:K`` is 1×K.
:func:`build_scenario` wires all of them by one rule:

* every data cable's ``forward`` direction points toward host2;
* switch 1 takes the sources on ports 1..K, every other switch takes its
  upstream neighbour on port 1, and each switch reaches host2 on the
  next port;
* host locations are provisioned per datapath.

Only node names depend on the shape (:func:`_node_names`).  The runner,
parallel engine, cache, observers and CLI all consume the spec and the
returned :class:`~repro.scenarios.testbed.Testbed`, never the wiring.
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


def _node_names(spec: ScenarioSpec):
    """Switch names, and each source's ``(name, mac, ip)``.

    The one place the wiring reads ``spec.shape``: each shape keeps the
    names it has always had, because fault RNG substreams
    (``faults.<switch>.up``) and registry labels are keyed on them.
    """
    if spec.shape == "line":
        switches = [f"s{i}" for i in range(1, spec.n_switches + 1)]
    else:
        switches = ["ovs"]
    if spec.shape == "fanin":
        sources = [(f"src{i}", f"02:00:00:00:00:{i:02x}", f"10.0.1.{i}")
                   for i in range(1, spec.n_sources + 1)]
    else:
        sources = [("host1", HOST1_MAC, HOST1_IP)]
    return switches, sources


def build_scenario(spec: ScenarioSpec, buffer_config: BufferConfig,
                   workload: Workload, calibration=None, seed: int = 0,
                   sampling_interval: float = 0.010) -> Testbed:
    """Build the testbed ``spec`` describes, around one workload.

    ``calibration`` (a
    :class:`~repro.experiments.calibration.TestbedCalibration`) overrides
    the spec's named calibration when given — the runner threads its own
    argument through here unchanged.  The workload is sharded by flow
    across the sources (:func:`shard_workload`), so every shape's first
    switch sees the same packet train, on K ingress ports.
    """
    cal = _resolve_calibration(spec, calibration)
    sim = Simulator()
    topo = Topology(sim)
    switch_names, source_names = _node_names(spec)
    sources = [topo.add_node(name, Host(sim, name, mac, ip))
               for name, mac, ip in source_names]
    host2 = topo.add_node("host2", Host(sim, "host2", HOST2_MAC, HOST2_IP))
    for name in switch_names + ["controller"]:
        topo.add_node(name, None)       # placeholder until the object exists

    def data_cable(a: str, b: str):
        return topo.add_cable(a, b, cal.data_link_rate_bps,
                              cal.link_propagation_delay)

    # Each switch's ingress ports as (cable, the sources behind it), and
    # its egress cable; every cable is named, so oriented, toward host2.
    ingress = [[(data_cable(source.name, switch_names[0]), [source])
                for source in sources]]
    hops = switch_names + ["host2"]
    egress = [data_cable(a, b) for a, b in zip(hops, hops[1:])]
    ingress += [[(cable, sources)] for cable in egress[:-1]]

    registry = MetricsRegistry()
    pool = build_pool(spec.pool, buffer_config.capacity, len(switch_names),
                      ports_per_switch=len(sources) + 1, registry=registry)
    per_port = pool is not None and spec.pool.scope == SCOPE_PORT
    locator = HostLocator()
    app = ReactiveForwardingApp(
        locator=locator, idle_timeout=cal.controller.flow_idle_timeout,
        hard_timeout=cal.controller.flow_hard_timeout)
    controller = Controller(sim, cal.controller, app=app, registry=registry)

    switches: List[Switch] = []
    for index, name in enumerate(switch_names):
        dpid = index + 1
        channel = ControlChannel(sim, topo.add_cable(
            name, "controller", cal.control_link_rate_bps,
            cal.link_propagation_delay))
        mechanism = create_mechanism(buffer_config, sim, pool=pool,
                                     partition=name,
                                     per_port_partitions=per_port)
        switch = Switch(sim, _switch_config(spec, cal, dpid), mechanism,
                        channel, name=name, datapath_id=dpid,
                        registry=registry)
        for port, (cable, behind) in enumerate(ingress[index], start=1):
            switch.attach_port(port, cable, switch_side_forward=False)
            for host in behind:
                locator.provision(port, mac=host.mac, ip=host.ip,
                                  datapath_id=dpid)
        out_port = len(ingress[index]) + 1
        switch.attach_port(out_port, egress[index], switch_side_forward=True)
        locator.provision(out_port, mac=host2.mac, ip=host2.ip,
                          datapath_id=dpid)
        controller.attach_channel(channel, datapath_id=dpid)
        switches.append(topo.replace_node(name, switch))
    topo.replace_node("controller", controller)

    for source, (cable, _behind) in zip(sources, ingress[0]):
        source.attach(cable.forward)
        cable.reverse.connect(source.receive)
    host2.attach(egress[-1].reverse)
    egress[-1].forward.connect(host2.receive)

    pktgens = [PacketGenerator(sim, source, shard) for source, shard
               in zip(sources, shard_workload(workload, len(sources)))]
    # Built last: at build time only the switches and this suite's
    # samplers queue calls, so the suite's calls stay behind the
    # switches' at equal times.
    metrics = MetricsSuite(sim, switches, controller, workload.flows,
                           sampling_interval=sampling_interval)
    return Testbed(sim=sim, topology=topo, hosts=sources + [host2],
                   switches=switches, controller=controller,
                   pktgens=pktgens, metrics=metrics,
                   rng=RandomStreams(seed), registry=registry, spec=spec,
                   pool=pool)


def shard_workload(workload: Workload, n_shards: int) -> List[Workload]:
    """Split a workload across sources, keeping each flow on one source.

    Entries are assigned by ``flow_id % n_shards`` so a flow's packets
    always leave the same host (no reordering within a flow); offsets are
    preserved, so the union of the shards replays the original schedule.
    The shards of an :class:`~repro.trafficgen.AggregateWorkload` are
    aggregate too: each keeps its flows' lazy tails and counts its own
    logical packets and duration.  One shard is the workload itself.
    """
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    if n_shards == 1:
        return [workload]
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


def build_testbed(buffer_config: BufferConfig, workload: Workload,
                  calibration=None, seed: int = 0,
                  sampling_interval: float = 0.010) -> Testbed:
    """Build the Fig. 1 testbed around ``workload`` and ``buffer_config``.

    Historical entry point: :func:`build_scenario` on the ``single``
    spec.
    """
    from .spec import SINGLE
    return build_scenario(SINGLE, buffer_config, workload,
                          calibration=calibration, seed=seed,
                          sampling_interval=sampling_interval)
