"""Tests for packet and header models."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.packets import (ETHERTYPE_IPV4, FLAG_ACK, FLAG_SYN, MIN_FRAME,
                           EthernetHeader, FiveTuple, IPv4Header, Packet,
                           TCPHeader, UDPHeader, flags_to_str, int_to_ip,
                           int_to_mac, ip_to_int, mac_to_int, proto_name,
                           tcp_control_packet, tcp_packet, udp_packet,
                           PROTO_TCP, PROTO_UDP)


# ---------------------------------------------------------------------------
# Address helpers
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_ip_round_trip(value):
    assert ip_to_int(int_to_ip(value)) == value


@given(st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_mac_round_trip(value):
    assert mac_to_int(int_to_mac(value)) == value


@pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1",
                                 "a.b.c.d", "1.2.3.-4", ""])
def test_malformed_ip_rejected(bad):
    with pytest.raises(ValueError):
        ip_to_int(bad)


@pytest.mark.parametrize("bad", ["00:11:22:33:44", "gg:00:00:00:00:00",
                                 "001122334455", ""])
def test_malformed_mac_rejected(bad):
    with pytest.raises(ValueError):
        mac_to_int(bad)


def test_proto_names():
    assert proto_name(PROTO_UDP) == "udp"
    assert proto_name(PROTO_TCP) == "tcp"
    assert proto_name(137) == "137"


# ---------------------------------------------------------------------------
# Header validation
# ---------------------------------------------------------------------------

def test_ethernet_header_validates_macs():
    with pytest.raises(ValueError):
        EthernetHeader(src_mac="bogus", dst_mac="00:00:00:00:00:01")


def test_ethernet_reversed_swaps_addresses():
    header = EthernetHeader("00:00:00:00:00:01", "00:00:00:00:00:02")
    swapped = header.reversed()
    assert swapped.src_mac == header.dst_mac
    assert swapped.dst_mac == header.src_mac


def test_ipv4_header_validates_fields():
    with pytest.raises(ValueError):
        IPv4Header("10.0.0.1", "10.0.0.2", protocol=300)
    with pytest.raises(ValueError):
        IPv4Header("10.0.0.1", "10.0.0.2", protocol=17, ttl=-1)


def test_ipv4_decremented_ttl():
    header = IPv4Header("1.1.1.1", "2.2.2.2", protocol=17, ttl=64)
    assert header.decremented().ttl == 63
    zero = IPv4Header("1.1.1.1", "2.2.2.2", protocol=17, ttl=0)
    with pytest.raises(ValueError):
        zero.decremented()


def test_udp_header_port_validation():
    with pytest.raises(ValueError):
        UDPHeader(src_port=70000, dst_port=53)
    header = UDPHeader(src_port=1234, dst_port=53)
    assert header.reversed() == UDPHeader(src_port=53, dst_port=1234)


def test_tcp_flags_semantics():
    syn = TCPHeader(1, 2, flags=FLAG_SYN)
    synack = TCPHeader(1, 2, flags=FLAG_SYN | FLAG_ACK)
    assert syn.is_syn and not syn.is_synack
    assert synack.is_synack and not synack.is_syn
    assert flags_to_str(FLAG_SYN | FLAG_ACK) == "S."
    assert flags_to_str(0) == "-"


def test_tcp_validation():
    with pytest.raises(ValueError):
        TCPHeader(1, 2, seq=1 << 32)
    with pytest.raises(ValueError):
        TCPHeader(1, 2, flags=0x1FF)


# ---------------------------------------------------------------------------
# Packet sizes
# ---------------------------------------------------------------------------

def test_udp_packet_wire_length_is_requested_frame_len():
    packet = udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                        "10.0.0.1", "10.0.0.2", 1000, 2000, frame_len=1000)
    assert packet.wire_len == 1000
    assert packet.header_len == 14 + 20 + 8
    assert packet.payload_len == 1000 - 42


def test_minimum_frame_size_enforced():
    packet = tcp_control_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                                "10.0.0.1", "10.0.0.2", 1, 2,
                                flags=FLAG_SYN)
    # 14 + 20 + 20 = 54 bytes of headers, padded to the Ethernet minimum.
    assert packet.header_len == 54
    assert packet.wire_len == MIN_FRAME


def test_frame_smaller_than_headers_rejected():
    with pytest.raises(ValueError):
        udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                   "10.0.0.1", "10.0.0.2", 1, 2, frame_len=30)


def test_leading_bytes_truncation():
    packet = udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                        "10.0.0.1", "10.0.0.2", 1, 2, frame_len=1000)
    assert packet.leading_bytes(128) == 128
    assert packet.leading_bytes(5000) == 1000
    with pytest.raises(ValueError):
        packet.leading_bytes(-1)


def test_packet_uids_are_unique():
    packets = [udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                          "10.0.0.1", "10.0.0.2", 1, 2) for _ in range(10)]
    uids = {p.uid for p in packets}
    assert len(uids) == 10


# ---------------------------------------------------------------------------
# Replay and fresh copies
# ---------------------------------------------------------------------------

def _stamped_template():
    template = udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                          "10.0.0.1", "10.0.0.2", 1111, 2222,
                          flow_id=3, seq_in_flow=4)
    # Fill the lookup-key caches and every measurement stamp.
    assert template.wire_len == 1000
    assert template.five_tuple is not None
    template.exact_key(1)
    template.created_at = 0.25
    template.switch_in_at = 0.5
    template.switch_out_at = 0.75
    return template


def test_replay_copy_is_a_new_object_with_the_same_uid():
    template = _stamped_template()
    clone = template.replay_copy()
    assert clone is not template
    assert type(clone) is Packet
    assert clone.uid == template.uid
    assert (clone.payload_len, clone.flow_id, clone.seq_in_flow) == (
        template.payload_len, template.flow_id, template.seq_in_flow)


def test_replay_copy_shares_headers_and_key_caches():
    template = _stamped_template()
    clone = template.replay_copy()
    assert clone.eth is template.eth
    assert clone.ip is template.ip
    assert clone.l4 is template.l4
    assert clone._five_tuple is template._five_tuple
    assert clone._exact_key is template._exact_key
    assert clone.wire_len == template.wire_len
    assert clone.exact_key(1) is template.exact_key(1)


def test_replay_copy_clears_the_stamps():
    clone = _stamped_template().replay_copy()
    assert clone.created_at is None
    assert clone.switch_in_at is None
    assert clone.switch_out_at is None


def test_replay_copy_writes_leave_the_template_untouched():
    template = _stamped_template()
    before = dict(vars(template))
    clone = template.replay_copy()
    clone.created_at = 9.0
    clone.switch_in_at = clone.switch_out_at = 9.5
    clone.seq_in_flow = 99
    clone.exact_key(7)
    assert vars(template) == before
    assert template.exact_key(1)[0] == 1


def test_fresh_copy_takes_a_new_uid():
    template = _stamped_template()
    clone = template.fresh_copy()
    assert clone.uid > template.uid
    assert clone.eth is template.eth and clone.l4 is template.l4
    assert (clone.created_at, clone.switch_in_at,
            clone.switch_out_at) == (None, None, None)
    assert template.created_at == 0.25


def test_l4_without_ip_rejected():
    eth = EthernetHeader("00:00:00:00:00:01", "00:00:00:00:00:02")
    with pytest.raises(ValueError):
        Packet(eth=eth, l4=UDPHeader(1, 2))


def test_packet_protocol_predicates():
    udp = udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                     "10.0.0.1", "10.0.0.2", 1, 2)
    tcp = tcp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                     "10.0.0.1", "10.0.0.2", 1, 2)
    assert udp.is_udp and not udp.is_tcp
    assert tcp.is_tcp and not tcp.is_udp


# ---------------------------------------------------------------------------
# FiveTuple
# ---------------------------------------------------------------------------

def test_five_tuple_from_packet():
    packet = udp_packet("00:00:00:00:00:01", "00:00:00:00:00:02",
                        "10.0.0.1", "10.0.0.2", 1111, 2222)
    key = packet.five_tuple
    assert key == FiveTuple("10.0.0.1", 1111, "10.0.0.2", 2222, PROTO_UDP)


def test_five_tuple_none_for_non_ip():
    eth = EthernetHeader("00:00:00:00:00:01", "00:00:00:00:00:02",
                         ethertype=ETHERTYPE_IPV4)
    packet = Packet(eth=eth)
    assert packet.five_tuple is None


def test_five_tuple_reversed_is_involution():
    key = FiveTuple("10.0.0.1", 1111, "10.0.0.2", 2222, PROTO_UDP)
    assert key.reversed().reversed() == key
    assert key.reversed() != key


def test_five_tuple_is_hashable_and_stable():
    a = FiveTuple("10.0.0.1", 1, "10.0.0.2", 2, PROTO_UDP)
    b = FiveTuple("10.0.0.1", 1, "10.0.0.2", 2, PROTO_UDP)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF))
def test_five_tuple_distinct_ports_distinct_flows(p1, p2):
    a = FiveTuple("10.0.0.1", p1, "10.0.0.2", 80, PROTO_UDP)
    b = FiveTuple("10.0.0.1", p2, "10.0.0.2", 80, PROTO_UDP)
    assert (a == b) == (p1 == p2)
