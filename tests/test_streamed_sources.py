"""Streamed traffic sources: one queued send per source, same events.

A :class:`~repro.trafficgen.PacketGenerator` and a hybrid
:class:`~repro.engine.HybridFlowDriver` keep exactly one send queued,
under the sequence number it would have drawn had the whole train been
queued at start (:meth:`~repro.simkit.Simulator.reserve`).  The eager
sources below, which queued every send (and its packet copy) at start,
are the references: every executed event must keep its time, its
callback and the ``events_scheduled`` count it sees.
"""

from __future__ import annotations

import warnings
from functools import partial

import pytest

from repro.core import buffer_16, buffer_256, flow_buffer_256, no_buffer
from repro.engine import (HybridFlowDriver, install_hybrid_drivers,
                          parse_engine)
from repro.engine.hybrid import _FlowState
from repro.experiments import run_figscale_experiment, run_once
from repro.netsim import Host, Link
from repro.scenarios import build_scenario, parse_scenario
from repro.simkit import RandomStreams, Simulator, mbps
from repro.trafficgen import (AggregateWorkload, PacketGenerator,
                              batched_multi_packet_flows, flow_train_flows,
                              single_packet_flows)


class _EagerPacketGenerator:
    """The eager pktgen: every send, with its packet copy, queued at
    start."""

    def start(self, at=0.0):
        if (isinstance(self.workload, AggregateWorkload)
                and self.workload.tails):
            raise ValueError("lazy tails")
        base = self.sim.now + at
        self._handles = []
        for offset, packet in self.workload.entries:
            self._handles.append(self.sim.schedule_at(
                base + offset, self._send, packet.replay_copy()))

    def _send(self, packet):
        if self._stopped:
            return
        self.packets_sent += 1
        self.host.send(packet)


class _EagerHybridFlowDriver:
    """The eager hybrid driver: every first send, and a copy of every
    explicit tail packet, queued or made at start."""

    def start(self, at=0.0):
        if self._started:
            raise RuntimeError("driver already started")
        self._started = True
        self._base = self.sim.now + at
        lazy_tails = getattr(self.workload, "tails", None)
        for offset, packet in self.workload.entries:
            flow_id = packet.flow_id
            state = self._states.get(flow_id) if flow_id is not None \
                else None
            fresh = packet.replay_copy()
            if state is None:
                if flow_id is not None:
                    state = _FlowState(flow_id)
                    state.times = []
                    state.packets = []
                    self._states[flow_id] = state
                self.sim.schedule_at(self._base + offset, self._send_first,
                                     state, fresh)
            else:
                state.times.append(offset)
                state.packets.append(fresh)
        if lazy_tails:
            for flow_id, (_template, times) in lazy_tails.items():
                state = self._states.get(flow_id)
                if state is None:
                    continue
                if state.packets:
                    raise ValueError(
                        f"flow {flow_id} has both explicit entries and a "
                        f"lazy tail")
                state.times = times
                state.packets = None
        self.testbed.switches[-1].events.on("packet_egress",
                                            self._on_egress)
        for index, switch in enumerate(self.testbed.switches):
            switch.events.on("table_miss", partial(self._on_miss, index))

    def _send_first(self, state, packet):
        self.pktgen._send(packet)
        self._discrete_inc()
        if state is not None:
            self._schedule_next(state)


def _play_eagerly(patch) -> None:
    for owner, reference in ((PacketGenerator, _EagerPacketGenerator),
                             (HybridFlowDriver, _EagerHybridFlowDriver)):
        for name in ("start", "_send", "_send_first"):
            if name in vars(reference):
                patch.setattr(owner, name, vars(reference)[name])


#: The streamed pktgen's send is the eager one's ``_send``.
_RENAMED = {"PacketGenerator._send_next": "PacketGenerator._send"}


def _callback_name(fn) -> str:
    fn = getattr(fn, "func", fn)            # functools.partial
    name = getattr(fn, "__qualname__", type(fn).__qualname__)
    name = name.replace("_Eager", "")
    return _RENAMED.get(name, name)


class _StreamRecorder:
    """A stride-1 duck-typed profiler: ``(time, callback,
    events_scheduled)`` after every executed event."""

    stride = 1

    def __init__(self, sim):
        self.sim = sim
        self.events = []

    def begin_run(self, now):
        pass

    def end_run(self, now, executed):
        pass

    def record(self, fn, seconds, executed, now):
        self.events.append((now, _callback_name(fn),
                            self.sim.events_scheduled))


def _event_stream(config, workload, scenario, seed=1):
    recorders = []

    def attach(testbed):
        recorders.append(_StreamRecorder(testbed.sim))
        testbed.sim.attach_profiler(recorders[-1])

    run_once(config, workload, seed=seed, scenario=scenario,
             on_testbed=attach)
    return recorders[0].events


def _assert_same_stream(config, workload, scenario, monkeypatch):
    streamed = _event_stream(config, workload, scenario)
    with monkeypatch.context() as patch:
        _play_eagerly(patch)
        eager = _event_stream(config, workload, scenario)
    assert streamed, "no event ran"
    assert len(streamed) == len(eager)
    # Order first, so a reordering is reported as one before the
    # sequence counts it also shifts.
    for index, (mine, reference) in enumerate(zip(streamed, eager)):
        assert mine[:2] == reference[:2], f"event {index} of {len(eager)}"
    assert streamed == eager


_MECHANISMS = (no_buffer, buffer_16, flow_buffer_256)


def _grid_workload(name):
    if name == "A":
        return single_packet_flows(mbps(60), n_flows=40,
                                   rng=RandomStreams(5))
    return batched_multi_packet_flows(mbps(60), n_flows=10,
                                      packets_per_flow=6,
                                      rng=RandomStreams(5))


@pytest.mark.parametrize("engine", ("packet", "hybrid"))
@pytest.mark.parametrize("shape", ("single", "line:2", "fanin:2"))
def test_streamed_sources_replay_the_eager_event_stream(shape, engine,
                                                        monkeypatch):
    """Workloads A and B under every mechanism kind: the same events,
    at the same times, in the same order, with the same counts."""
    scenario = parse_scenario(shape).with_engine(parse_engine(engine))
    for mechanism in _MECHANISMS:
        for workload in ("A", "B"):
            _assert_same_stream(mechanism(), _grid_workload(workload),
                                scenario, monkeypatch)


def test_streamed_first_sends_keep_their_ties_with_pre_open_tails(
        monkeypatch):
    """400 flow trains whose first sends tie with earlier flows' pre-open
    tail sends at the same instants: a streamed first send queued under
    a fresh number, not its reserved one, would run after them."""
    workload = flow_train_flows(mbps(4), n_flows=400)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # ρ ≈ 3.9
        _assert_same_stream(flow_buffer_256(), workload,
                            parse_scenario("single").with_engine(
                                parse_engine("hybrid")), monkeypatch)


@pytest.mark.parametrize("n_flows", (10, 1000))
@pytest.mark.parametrize("engine", ("packet", "hybrid"))
@pytest.mark.parametrize("shape", ("single", "fanin:2"))
def test_start_queues_one_send_per_source(shape, engine, n_flows):
    workload = flow_train_flows(mbps(4), n_flows=n_flows,
                                packets_per_flow=4, flow_rate=50.0)
    scenario = parse_scenario(shape).with_engine(parse_engine(engine))
    if engine == "packet":
        workload = workload.materialize()
    testbed = build_scenario(scenario, buffer_256(), workload)
    sources = (install_hybrid_drivers(testbed) if engine == "hybrid"
               else testbed.pktgens)
    before = testbed.sim.pending_count()
    for source in sources:
        source.start(at=0.02)
    assert testbed.sim.pending_count() == before + len(sources)
    testbed.shutdown()


def test_pktgen_refuses_decreasing_offsets_and_a_second_start():
    sim = Simulator()
    host = Host(sim, "h", "00:00:00:00:00:01", "10.0.0.1")
    host.attach(Link(sim, "l", mbps(100)))
    workload = single_packet_flows(mbps(100), n_flows=3)
    generator = PacketGenerator(sim, host, workload)
    generator.start()
    with pytest.raises(RuntimeError, match="already started"):
        generator.start()
    workload.entries.reverse()
    with pytest.raises(ValueError, match="sort the entries"):
        PacketGenerator(sim, host, workload).start()
    assert sim.pending_count() == 1


def test_hybrid_warns_outside_the_fluid_region():
    """ρ ≥ 1 on a multi-packet workload warns, naming ρ and §16; the
    default figscale point (ρ ≈ 0.63) and single-packet flows at any
    load do not."""
    with pytest.warns(RuntimeWarning, match=r"ρ = 1\.24 .*§16"):
        loaded = run_figscale_experiment(flow_counts=(1000,),
                                         packet_cap=1000, flow_rate=250.0)
    # Queueing at the source is what the fluid model leaves out.
    assert loaded.deviation_at(1000)["forwarding_delay_mean"] > 0.15
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        default = run_figscale_experiment(flow_counts=(1000,),
                                          packet_cap=0)
        assert default.point(1000, "hybrid").completed == 1000
        dense = single_packet_flows(mbps(400), n_flows=200)
        testbed = build_scenario(parse_scenario("single").with_engine(
            parse_engine("hybrid")), buffer_256(), dense)
        (driver,) = install_hybrid_drivers(testbed)
        assert driver.offered_load > 1
        testbed.shutdown()
