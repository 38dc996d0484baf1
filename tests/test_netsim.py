"""Tests for links, hosts and topology."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import buffer_256
from repro.experiments import run_once
from repro.netsim import DuplexLink, Host, Link, Topology
from repro.packets import udp_packet
from repro.simkit import (RandomStreams, ServiceStation, Simulator, mbps,
                          transmission_delay, usec)
from repro.trafficgen import single_packet_flows


def _packet(frame_len=1000):
    return udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                      "10.0.0.1", "10.0.0.2", 1, 2, frame_len=frame_len)


# ---------------------------------------------------------------------------
# Link
# ---------------------------------------------------------------------------

def test_link_delivers_after_tx_plus_propagation(sim):
    link = Link(sim, "l", bandwidth_bps=mbps(100),
                propagation_delay=usec(5))
    arrivals = []
    link.connect(lambda item: arrivals.append((item, sim.now)))
    link.send("frame", 1000)      # 80 us serialization + 5 us propagation
    sim.run()
    assert arrivals == [("frame", pytest.approx(usec(85)))]


def test_link_serializes_fifo(sim):
    link = Link(sim, "l", bandwidth_bps=mbps(100), propagation_delay=0.0)
    arrivals = []
    link.connect(lambda item: arrivals.append((item, sim.now)))
    link.send("a", 1000)
    link.send("b", 1000)
    sim.run()
    assert arrivals[0] == ("a", pytest.approx(usec(80)))
    assert arrivals[1] == ("b", pytest.approx(usec(160)))


def test_link_counts_bytes_and_items(sim):
    link = Link(sim, "l", bandwidth_bps=mbps(10))
    link.connect(lambda item: None)
    link.send("x", 500)
    link.send("y", 700)
    assert link.bytes_sent == 1200
    assert link.items_sent == 2
    sim.run()


def test_link_taps_observe_transmissions(sim):
    link = Link(sim, "l", bandwidth_bps=mbps(10))
    link.connect(lambda item: None)
    seen = []
    link.add_tap(lambda t, item, size: seen.append((t, item, size)))
    link.send("x", 500)
    assert seen == [(0.0, "x", 500)]
    sim.run()


def test_link_requires_receiver(sim):
    link = Link(sim, "l", bandwidth_bps=mbps(10))
    with pytest.raises(RuntimeError):
        link.send("x", 100)


def test_link_validation(sim):
    with pytest.raises(ValueError):
        Link(sim, "l", bandwidth_bps=0)
    with pytest.raises(ValueError):
        Link(sim, "l", bandwidth_bps=1, propagation_delay=-1)
    link = Link(sim, "l", bandwidth_bps=mbps(10))
    link.connect(lambda item: None)
    with pytest.raises(ValueError):
        link.send("x", 0)


def test_link_utilization_and_reset(sim):
    link = Link(sim, "l", bandwidth_bps=mbps(8))   # 1 byte per microsecond
    link.connect(lambda item: None)
    link.send("x", 1_000_000)                      # 1 second of tx
    sim.run(until=2.0)
    assert link.utilization_percent() == pytest.approx(50.0)
    # Counters run from creation: nothing restarts a window.
    assert link.bytes_sent == 1_000_000 and link.items_sent == 1


def test_link_utilization_counts_the_frame_in_flight(sim):
    link = Link(sim, "l", bandwidth_bps=mbps(8))
    link.connect(lambda item: None)
    link.send("x", 1_000_000)                      # busy from 0 s to 1 s
    sim.run(until=0.25)
    readings = [link.utilization_percent()]
    sim.run(until=2.0)
    readings.append(link.utilization_percent())
    assert readings == [100.0, pytest.approx(50.0)]
    assert all(0.0 <= reading <= 100.0 for reading in readings)


class StationLink:
    """Reference model: the link as a 1-server queueing station.

    Two events per item: the station's transmit completion, which
    schedules the delivery after the propagation delay and notifies idle
    listeners once the queue has drained.  :class:`Link` computes the
    completion time at send instead and must deliver the same items at
    the same float times.
    """

    def __init__(self, sim, bandwidth_bps, propagation_delay):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self._station = ServiceStation(sim, "ref.tx", servers=1)
        self._receiver = None
        self._idle_listeners = []

    def connect(self, receiver):
        self._receiver = receiver

    def add_idle_listener(self, listener):
        self._idle_listeners.append(listener)

    def send(self, item, size_bytes):
        service = transmission_delay(size_bytes, self.bandwidth_bps)
        self._station.submit(item, service, self._transmitted)

    def _transmitted(self, item):
        self.sim.schedule(self.propagation_delay, self._receiver, item)
        station = self._station
        if not station._busy and not station._queue:
            for listener in self._idle_listeners:
                listener()


class OneFrameFeeder:
    """Hands the link one frame at a time, as the egress schedulers do."""

    def __init__(self, sim, link):
        self.sim = sim
        self.link = link
        self.queue = deque()
        self.busy = False
        self.idle_times = []
        link.add_idle_listener(self._on_idle)

    def enqueue(self, item, size_bytes):
        self.queue.append((item, size_bytes))
        self._pump()

    def _pump(self):
        if not self.busy and self.queue:
            self.busy = True
            self.link.send(*self.queue.popleft())

    def _on_idle(self):
        self.idle_times.append(self.sim.now)
        self.busy = False
        self._pump()


def _play(make_link, bandwidth, propagation, schedule, listener):
    sim = Simulator()
    link = make_link(sim, bandwidth, propagation)
    deliveries = []
    link.connect(lambda item: deliveries.append((sim.now, item)))
    send = link.send
    idle_times = []
    if listener == "feeder":
        front = OneFrameFeeder(sim, link)
        send, idle_times = front.enqueue, front.idle_times
    elif listener == "observer":
        # Frames queue behind each other, so only some ends are idle.
        link.add_idle_listener(lambda: idle_times.append(sim.now))
    now = 0.0
    for item, (gap, size) in enumerate(schedule):
        now += gap
        sim.schedule_at(now, send, item, size)
    sim.run()
    return deliveries, idle_times


@settings(max_examples=150, deadline=None)
@given(bandwidth=st.floats(min_value=1e5, max_value=1e10),
       propagation=st.one_of(st.just(0.0),
                             st.floats(min_value=1e-7, max_value=1e-2)),
       schedule=st.lists(
           st.tuples(st.one_of(st.just(0.0),     # same-instant bursts
                               st.floats(min_value=1e-7, max_value=1e-3)),
                     st.integers(min_value=1, max_value=9000)),
           min_size=1, max_size=40),
       listener=st.sampled_from(["none", "observer", "feeder"]))
def test_link_matches_the_station_reference(bandwidth, propagation,
                                             schedule, listener):
    """Same ``(sim.now, item)`` deliveries, bit for bit, and idle times."""
    ours = _play(lambda sim, bw, prop: Link(sim, "l", bw, prop),
                 bandwidth, propagation, schedule, listener)
    reference = _play(StationLink, bandwidth, propagation, schedule,
                      listener)
    assert ours == reference
    assert len(ours[0]) == len(schedule)


def test_one_event_per_link_hop():
    """Pins the event count of a fixed packet-engine run.

    Single switch, 200 single-packet flows at 60 Mbps, seed 0.  With a
    station per link direction the run executed 5500 events; its links
    carried 1004 items, and each now costs one event (its delivery)
    instead of two, so the run executes 5500 - 1004 = 4496.
    """
    testbeds = []
    workload = single_packet_flows(mbps(60), n_flows=200,
                                   rng=RandomStreams(0))
    metrics = run_once(buffer_256(), workload, seed=0,
                       on_testbed=testbeds.append)
    testbed = testbeds[0]
    items = sum(cable.forward.items_sent + cable.reverse.items_sent
                for _ends, cable in testbed.topology.cables())
    assert metrics.completed_flows == 200
    assert items == 1004
    assert testbed.sim.events_executed == 4496


def test_duplex_link_directions_are_independent(sim):
    cable = DuplexLink(sim, "cable", bandwidth_bps=mbps(100))
    forward, reverse = [], []
    cable.connect(forward.append, reverse.append)
    cable.forward.send("f", 100)
    cable.reverse.send("r", 100)
    sim.run()
    assert forward == ["f"]
    assert reverse == ["r"]


# ---------------------------------------------------------------------------
# Host
# ---------------------------------------------------------------------------

def test_host_send_stamps_created_at(sim):
    host = Host(sim, "h", "00:00:00:00:00:01", "10.0.0.1")
    link = Link(sim, "l", bandwidth_bps=mbps(100))
    link.connect(lambda item: None)
    host.attach(link)
    packet = _packet()
    sim.schedule(1.0, host.send, packet)
    sim.run()
    assert packet.created_at == 1.0
    assert host.packets_sent == 1


def test_host_receive_records_and_hooks(sim):
    host = Host(sim, "h", "00:00:00:00:00:02", "10.0.0.2")
    seen = []
    host.add_receive_hook(lambda t, p: seen.append((t, p.uid)))
    packet = _packet()
    host.receive(packet)
    assert host.packets_received == 1
    assert host.bytes_received == packet.wire_len
    assert seen == [(0.0, packet.uid)]


def test_host_send_unattached_raises(sim):
    host = Host(sim, "h", "00:00:00:00:00:01", "10.0.0.1")
    with pytest.raises(RuntimeError):
        host.send(_packet())


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

def test_topology_registers_and_looks_up_nodes(sim):
    topo = Topology(sim)
    host = topo.add_node("h1", Host(sim, "h1", "00:00:00:00:00:01",
                                    "10.0.0.1"))
    assert topo.node("h1") is host
    assert "h1" in topo
    assert "h2" not in topo


def test_topology_duplicate_node_rejected(sim):
    topo = Topology(sim)
    topo.add_node("h1", object())
    with pytest.raises(ValueError):
        topo.add_node("h1", object())


def test_topology_duplicate_node_error_names_the_key(sim):
    topo = Topology(sim)
    topo.add_node("h1", object())
    with pytest.raises(ValueError, match="'h1' already exists"):
        topo.add_node("h1", object())


def test_topology_duplicate_cable_error_names_both_endpoints(sim):
    topo = Topology(sim)
    topo.add_node("a", object())
    topo.add_node("b", object())
    topo.add_cable("a", "b", mbps(100))
    with pytest.raises(ValueError, match="'b' and 'a' already exists"):
        topo.add_cable("b", "a", mbps(100))


def test_topology_len_and_node_iteration(sim):
    topo = Topology(sim)
    assert len(topo) == 0
    objects = {"h1": object(), "h2": object(), "s1": None}
    for name, node in objects.items():
        topo.add_node(name, node)
    assert len(topo) == 3                       # placeholders count too
    assert dict(topo.nodes()) == objects


def test_topology_unknown_node_lookup_raises(sim):
    topo = Topology(sim)
    with pytest.raises(KeyError):
        topo.node("ghost")


def test_topology_cable_requires_registered_nodes(sim):
    topo = Topology(sim)
    topo.add_node("a", object())
    with pytest.raises(KeyError):
        topo.add_cable("a", "b", mbps(100))


def test_topology_cable_order_insensitive_lookup(sim):
    topo = Topology(sim)
    topo.add_node("a", object())
    topo.add_node("b", object())
    cable = topo.add_cable("a", "b", mbps(100))
    assert topo.cable("b", "a") is cable
    with pytest.raises(ValueError):
        topo.add_cable("b", "a", mbps(100))


def test_topology_replace_node(sim):
    topo = Topology(sim)
    topo.add_node("x", None)
    replacement = object()
    topo.replace_node("x", replacement)
    assert topo.node("x") is replacement
    with pytest.raises(KeyError):
        topo.replace_node("ghost", object())
