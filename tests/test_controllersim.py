"""Tests for the controller model and the reactive forwarding app."""

from __future__ import annotations

import pytest

from repro.controllersim import (Controller, ControllerConfig, HostLocator,
                                 ReactiveForwardingApp)
from repro.netsim import DuplexLink
from repro.openflow import (ControlChannel, EchoReply, EchoRequest,
                            ErrorMsg, FlowMod, Hello, OFP_NO_BUFFER,
                            OutputAction, PacketIn, PacketOut, PortNo,
                            FeaturesRequest)
from repro.packets import udp_packet
from repro.simkit import mbps, usec


def _packet(src_ip="10.0.0.1", dst_ip="10.0.0.2"):
    return udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                      src_ip, dst_ip, 1000, 2000)


def _packet_in(packet=None, buffer_id=42, in_port=1):
    packet = packet or _packet()
    data_len = 128 if buffer_id != OFP_NO_BUFFER else packet.wire_len
    return PacketIn(packet=packet, in_port=in_port, buffer_id=buffer_id,
                    data_len=data_len)


def _controller(sim, config=None, locator=None):
    config = config or ControllerConfig()
    cable = DuplexLink(sim, "ctrl", mbps(100))
    channel = ControlChannel(sim, cable)
    to_switch = []
    channel.bind_switch(to_switch.append)
    app = ReactiveForwardingApp(locator=locator or _provisioned_locator())
    controller = Controller(sim, config, app=app)
    controller.attach_channel(channel, datapath_id=1)
    return controller, channel, to_switch


def _provisioned_locator():
    locator = HostLocator()
    locator.provision(1, mac="00:00:00:00:00:01", ip="10.0.0.1")
    locator.provision(2, mac="00:00:00:00:00:02", ip="10.0.0.2")
    return locator


# ---------------------------------------------------------------------------
# HostLocator
# ---------------------------------------------------------------------------

def test_locator_prefers_ip_over_mac():
    locator = HostLocator()
    locator.provision(1, mac="00:00:00:00:00:09")
    locator.provision(2, ip="10.0.0.9")
    assert locator.locate(mac="00:00:00:00:00:09", ip="10.0.0.9") == 2


def test_locator_learns_from_packet_in():
    locator = HostLocator()
    message = _packet_in(in_port=7)
    locator.learn_from(message)
    assert locator.locate(ip="10.0.0.1") == 7
    assert locator.locate(mac="00:00:00:00:00:01") == 7


def test_locator_unknown_returns_none():
    assert HostLocator().locate(ip="1.2.3.4") is None


def test_locator_provision_requires_address():
    with pytest.raises(ValueError):
        HostLocator().provision(1)


# ---------------------------------------------------------------------------
# ReactiveForwardingApp
# ---------------------------------------------------------------------------

def test_app_known_destination_produces_flow_mod_and_packet_out():
    app = ReactiveForwardingApp(locator=_provisioned_locator(),
                                idle_timeout=5.0)
    decision = app.decide(_packet_in(buffer_id=42))
    assert decision.flow_mod is not None
    assert decision.flow_mod.idle_timeout == 5.0
    assert decision.flow_mod.actions == (OutputAction(2),)
    assert decision.packet_out.buffer_id == 42
    assert decision.packet_out.data_len == 0


def test_app_unbuffered_request_gets_frame_back():
    app = ReactiveForwardingApp(locator=_provisioned_locator())
    packet = _packet()
    message = _packet_in(packet=packet, buffer_id=OFP_NO_BUFFER)
    decision = app.decide(message)
    assert decision.packet_out.buffer_id == OFP_NO_BUFFER
    assert decision.packet_out.packet is packet
    assert decision.packet_out.data_len == packet.wire_len


def test_app_unknown_destination_floods_without_rule():
    app = ReactiveForwardingApp(locator=HostLocator())
    decision = app.decide(_packet_in(packet=_packet(dst_ip="10.9.9.9")))
    assert decision.flow_mod is None
    assert decision.packet_out.actions == (OutputAction(int(PortNo.FLOOD)),)
    assert app.floods == 1


def test_app_replies_reference_request_xid():
    app = ReactiveForwardingApp(locator=_provisioned_locator())
    message = _packet_in()
    decision = app.decide(message)
    assert decision.flow_mod.in_reply_to == message.xid
    assert decision.packet_out.in_reply_to == message.xid


def test_app_match_is_exact_with_in_port():
    app = ReactiveForwardingApp(locator=_provisioned_locator())
    message = _packet_in(in_port=1)
    decision = app.decide(message)
    assert decision.flow_mod.match.in_port == 1
    assert decision.flow_mod.match.wildcard_count == 0


# ---------------------------------------------------------------------------
# Controller
# ---------------------------------------------------------------------------

def test_controller_replies_to_packet_in(sim):
    controller, channel, to_switch = _controller(sim)
    channel.send_to_controller(_packet_in())
    sim.run(until=1.0)
    kinds = [type(m) for m in to_switch]
    assert FlowMod in kinds and PacketOut in kinds
    assert controller.packet_ins_handled == 1
    assert controller.flow_mods_sent == 1
    assert controller.packet_outs_sent == 1


def test_controller_flow_mod_sent_before_packet_out(sim):
    controller, channel, to_switch = _controller(sim)
    channel.send_to_controller(_packet_in())
    sim.run(until=1.0)
    flow_mod_index = next(i for i, m in enumerate(to_switch)
                          if isinstance(m, FlowMod))
    packet_out_index = next(i for i, m in enumerate(to_switch)
                            if isinstance(m, PacketOut))
    assert flow_mod_index < packet_out_index


def test_controller_decision_latency_delays_replies(sim):
    config = ControllerConfig(decision_latency=usec(600))
    controller, channel, to_switch = _controller(sim, config=config)
    channel.send_to_controller(_packet_in())
    sim.run(until=1.0)
    (flow_mod,) = [m for m in to_switch if isinstance(m, FlowMod)]
    assert flow_mod.sent_at >= usec(600)


def test_controller_larger_requests_cost_more(sim):
    config = ControllerConfig()
    small = config.service_time(enclosed_bytes=128, backlog=0)
    large = config.service_time(enclosed_bytes=1000, backlog=0)
    assert large > small * 2


def test_controller_gc_inflation_capped(sim):
    config = ControllerConfig(gc_alpha=0.1, gc_max_factor=1.5)
    base = config.service_time(0, backlog=0)
    assert config.service_time(0, backlog=3) == pytest.approx(base * 1.3)
    assert config.service_time(0, backlog=1000) == pytest.approx(base * 1.5)


def test_controller_answers_echo(sim):
    controller, channel, to_switch = _controller(sim)
    channel.send_to_controller(EchoRequest(payload_len=4))
    sim.run(until=1.0)
    (reply,) = [m for m in to_switch if isinstance(m, EchoReply)]
    assert reply.payload_len == 4


def test_controller_counts_errors(sim):
    controller, channel, to_switch = _controller(sim)
    channel.send_to_controller(ErrorMsg())
    sim.run(until=1.0)
    assert controller.errors_received == 1


def test_controller_handshake_sends_hello_and_features(sim):
    controller, channel, to_switch = _controller(sim)
    controller.start_handshake()
    sim.run(until=1.0)
    kinds = [type(m) for m in to_switch]
    assert Hello in kinds and FeaturesRequest in kinds


def test_controller_periodic_echo(sim):
    config = ControllerConfig(echo_interval=0.1)
    controller, channel, to_switch = _controller(sim, config=config)
    sim.run(until=0.35)
    echoes = [m for m in to_switch if isinstance(m, EchoRequest)]
    assert len(echoes) == 3
    controller.shutdown()
    sim.run(until=1.0)
    assert len([m for m in to_switch
                if isinstance(m, EchoRequest)]) == 3


def test_controller_usage_reflects_work(sim):
    controller, channel, to_switch = _controller(sim)
    baseline = controller.config.baseline_usage_percent
    assert controller.usage_percent() == pytest.approx(baseline)
    for _ in range(100):
        channel.send_to_controller(_packet_in())
    sim.run(until=0.01)
    assert controller.usage_percent() > baseline


def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(cpu_cores=0)
    with pytest.raises(ValueError):
        ControllerConfig(gc_max_factor=0.5)
    with pytest.raises(ValueError):
        ControllerConfig(echo_interval=-1)
