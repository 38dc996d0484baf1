"""Integration: the wire codec survives everything a real run produces.

Taps both control-channel directions of live testbed runs, encodes every
OpenFlow message to OpenFlow 1.0 bytes, decodes it back, and checks the
reconstruction — proving the size accounting used by the load figures is
byte-for-byte real.
"""

from __future__ import annotations

import pytest

from repro.core import buffer_256, flow_buffer_256, no_buffer
from repro.experiments import build_testbed
from repro.openflow import (FlowMod, OFMessage, PacketIn, PacketOut,
                            decode_message, encode_message)
from repro.simkit import RandomStreams, mbps
from repro.trafficgen import batched_multi_packet_flows, single_packet_flows


def _codec_check(message: OFMessage, failures: list) -> None:
    try:
        wire = encode_message(message)
    except Exception as exc:     # noqa: BLE001 - collecting for assert
        failures.append((message, f"encode: {exc}"))
        return
    if len(wire) != message.wire_len:
        failures.append((message,
                         f"length {len(wire)} != wire_len "
                         f"{message.wire_len}"))
        return
    try:
        decoded = decode_message(wire)
    except Exception as exc:     # noqa: BLE001
        failures.append((message, f"decode: {exc}"))
        return
    if type(decoded) is not type(message) or decoded.xid != message.xid:
        failures.append((message, "identity lost"))
        return
    if isinstance(message, PacketIn):
        if decoded.buffer_id != message.buffer_id:
            failures.append((message, "buffer_id lost"))
        if decoded.packet.five_tuple != message.packet.five_tuple:
            failures.append((message, "flow key lost"))
    if isinstance(message, FlowMod) and decoded.match != message.match:
        failures.append((message, "match lost"))
    if isinstance(message, PacketOut) and decoded.actions != message.actions:
        failures.append((message, "actions lost"))


@pytest.mark.parametrize("config", [no_buffer(), buffer_256(),
                                    flow_buffer_256()],
                         ids=["no-buffer", "buffer-256", "flow-buffer"])
def test_every_control_message_encodes_and_decodes(config):
    workload = single_packet_flows(mbps(50), n_flows=25,
                                   rng=RandomStreams(60))
    testbed = build_testbed(config, workload, seed=60)
    failures: list = []
    seen = {"count": 0}

    def tap(time, item, size):
        if isinstance(item, OFMessage):
            seen["count"] += 1
            _codec_check(item, failures)

    cable = testbed.switches[0].agent.channel.cable
    cable.forward.add_tap(tap)
    cable.reverse.add_tap(tap)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=1.0)
    testbed.shutdown()

    assert seen["count"] > 50           # handshake + echoes + 25 flows
    assert failures == []


def test_workload_b_messages_encode_too():
    workload = batched_multi_packet_flows(mbps(80), n_flows=10,
                                          packets_per_flow=6, batch_size=5,
                                          rng=RandomStreams(61))
    testbed = build_testbed(flow_buffer_256(), workload, seed=61)
    failures: list = []

    def tap(time, item, size):
        if isinstance(item, OFMessage):
            _codec_check(item, failures)

    cable = testbed.switches[0].agent.channel.cable
    cable.forward.add_tap(tap)
    cable.reverse.add_tap(tap)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=2.0)
    testbed.shutdown()
    assert failures == []


def test_wire_size_equals_capture_accounting():
    """The capture layer's byte counts match real encoded sizes exactly
    (modulo the TCP/IP encapsulation constant per message)."""
    from repro.openflow import DEFAULT_ENCAPSULATION_OVERHEAD
    workload = single_packet_flows(mbps(40), n_flows=10,
                                   rng=RandomStreams(62))
    testbed = build_testbed(buffer_256(), workload, seed=62)
    encoded_bytes = {"total": 0, "count": 0}

    def tap(time, item, size):
        if isinstance(item, OFMessage):
            encoded_bytes["total"] += len(encode_message(item))
            encoded_bytes["count"] += 1

    testbed.switches[0].agent.channel.cable.forward.add_tap(tap)
    testbed.controller.start_handshake()
    testbed.pktgens[0].start(at=0.02)
    testbed.sim.run(until=1.0)
    captured = testbed.metrics.capture_up.bytes_total
    expected = (encoded_bytes["total"]
                + encoded_bytes["count"] * DEFAULT_ENCAPSULATION_OVERHEAD)
    assert captured == expected
    testbed.shutdown()
