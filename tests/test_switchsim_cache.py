"""Tests for the microflow cache (two-tier datapath lookup)."""

from __future__ import annotations

import pytest

from repro.controllersim import ControllerConfig
from repro.core import buffer_256
from repro.experiments import TestbedCalibration, build_testbed
from repro.openflow import FlowEntry, FlowTable, Match, OutputAction
from repro.simkit import RandomStreams, mbps
from repro.switchsim import MicroflowCache, SwitchConfig
from repro.trafficgen import recurring_flows
from repro.packets import udp_packet


def _packet(i=0):
    return udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                      f"10.0.0.{i + 1}", "10.0.0.2", 1000 + i, 2000)


def _entry(packet, in_port=1, **kwargs):
    return FlowEntry(match=Match.exact_from_packet(packet, in_port=in_port),
                     actions=(OutputAction(2),), **kwargs)


# ---------------------------------------------------------------------------
# Unit behaviour
# ---------------------------------------------------------------------------

def test_disabled_cache_always_misses():
    cache = MicroflowCache(0)
    assert not cache.enabled
    assert cache.lookup(_packet(), 1, generation=0, now=0.0) is None
    cache.store(_packet(), 1, generation=0, entry=_entry(_packet()))
    assert len(cache) == 0


def test_cache_hit_after_store():
    cache = MicroflowCache(16)
    packet = _packet()
    entry = _entry(packet)
    assert cache.lookup(packet, 1, 0, 0.0) is None
    cache.store(packet, 1, 0, entry)
    assert cache.lookup(packet, 1, 0, 1.0) is entry
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == pytest.approx(0.5)


def test_generation_change_invalidates():
    cache = MicroflowCache(16)
    packet = _packet()
    cache.store(packet, 1, generation=5, entry=_entry(packet))
    assert cache.lookup(packet, 1, generation=6, now=0.0) is None
    assert cache.invalidations == 1
    assert len(cache) == 0


def test_expired_entry_invalidates():
    cache = MicroflowCache(16)
    packet = _packet()
    entry = _entry(packet, idle_timeout=1.0)
    entry.last_used = 0.0
    cache.store(packet, 1, 0, entry)
    assert cache.lookup(packet, 1, 0, now=5.0) is None


def test_capacity_bound():
    cache = MicroflowCache(4)
    for i in range(10):
        cache.store(_packet(i), 1, 0, _entry(_packet(i)))
    assert len(cache) <= 4


def test_restore_of_resident_key_evicts_nothing():
    """Bugfix regression: re-storing a key that is already cached at full
    capacity must refresh that key in place, not evict an unrelated
    resident flow (the old code evicted whenever len >= capacity)."""
    cache = MicroflowCache(3)
    packets = [_packet(i) for i in range(3)]
    for packet in packets:
        cache.store(packet, 1, 0, _entry(packet))
    assert len(cache) == 3
    # Overwrite a resident key (e.g. after a generation bump re-lookup).
    refreshed = _entry(packets[1])
    cache.store(packets[1], 1, generation=1, entry=refreshed)
    assert len(cache) == 3
    # Every original key is still resident; nothing was evicted.
    assert cache.lookup(packets[0], 1, 0, now=0.0) is not None
    assert cache.lookup(packets[1], 1, 1, now=0.0) is refreshed
    assert cache.lookup(packets[2], 1, 0, now=0.0) is not None
    # A genuinely new key at capacity still evicts exactly one entry.
    cache.store(_packet(7), 1, 0, _entry(_packet(7)))
    assert len(cache) == 3


def test_validation():
    with pytest.raises(ValueError):
        MicroflowCache(-1)
    with pytest.raises(ValueError):
        SwitchConfig(microflow_cache_capacity=-1)


def test_flow_table_generation_bumps_on_mutations():
    table = FlowTable(capacity=8)
    packet = _packet()
    g0 = table.generation
    table.insert(_entry(packet), now=0.0)
    g1 = table.generation
    assert g1 > g0
    table.remove(Match(ip_dst="10.0.0.2"), now=0.0)
    assert table.generation > g1
    g2 = table.generation
    table.remove(Match(ip_src="1.2.3.4"), now=0.0)   # removes nothing
    assert table.generation == g2


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------

def _cached_calibration(capacity=1024):
    return TestbedCalibration(
        switch=SwitchConfig(microflow_cache_capacity=capacity),
        controller=ControllerConfig())


def test_repeat_traffic_hits_the_cache():
    workload = recurring_flows(mbps(20), n_flows=4, rounds=6)
    testbed = build_testbed(buffer_256(), workload,
                            calibration=_cached_calibration(), seed=95)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=2.0)
    datapath = testbed.switches[0].datapath
    # Round 1 misses everywhere; round 2 misses the cache (rules were
    # installed after the probe) but hits the table and populates the
    # cache; rounds 3-6 hit the cache.
    assert datapath.cache.hits >= 4 * 3
    assert len(testbed.hosts[-1].received) == 24
    # The table's own lookup counter stops growing once the cache serves.
    assert datapath.table.lookups < 24
    testbed.shutdown()


def test_cache_reduces_datapath_cpu():
    def run(capacity):
        workload = recurring_flows(mbps(50), n_flows=5, rounds=40)
        testbed = build_testbed(buffer_256(), workload,
                                calibration=_cached_calibration(capacity),
                                seed=96)
        testbed.controller.start_handshake()
        testbed.pktgens[0].start(at=0.02)
        testbed.sim.run(until=2.0)
        busy = testbed.switches[0].cpu.station.busy_time
        delivered = len(testbed.hosts[-1].received)
        testbed.shutdown()
        return busy, delivered

    busy_cached, delivered_cached = run(1024)
    busy_plain, delivered_plain = run(0)
    assert delivered_cached == delivered_plain == 200
    assert busy_cached < 0.85 * busy_plain


def test_rule_deletion_never_leaves_stale_fast_path():
    """After the rule is deleted, cached decisions must not forward."""
    from repro.openflow import FlowMod, FlowModCommand
    workload = recurring_flows(mbps(20), n_flows=1, rounds=3)
    testbed = build_testbed(buffer_256(), workload,
                            calibration=_cached_calibration(), seed=97)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=1.0)
    host1, host2 = testbed.hosts
    agent = testbed.switches[0].agent
    assert len(host2.received) == 3
    # Delete everything; the cached decision must be invalidated.
    agent.channel.send_to_switch(FlowMod(match=Match(),
                                         command=FlowModCommand.DELETE))
    testbed.sim.run(until=1.5)
    packet_ins_before = agent.packet_ins_sent.value
    replay = recurring_flows(mbps(20), n_flows=1, rounds=1)
    from repro.trafficgen import PacketGenerator
    PacketGenerator(testbed.sim, host1, replay).start()
    testbed.sim.run(until=2.5)
    # The packet went back through the miss path (a new packet_in).
    assert agent.packet_ins_sent.value == packet_ins_before + 1
    assert len(host2.received) == 4
    testbed.shutdown()
