"""Convenience constructors for common packet shapes.

The experiment workloads build thousands of near-identical frames; these
helpers centralize the header plumbing (and the "frame size" convention:
the paper specifies total Ethernet frame size, e.g. 1000 bytes, so payload
length is derived by subtracting the header stack).
"""

from __future__ import annotations

from typing import Optional

from .ethernet import EthernetHeader
from .ipv4 import PROTO_TCP, PROTO_UDP, IPv4Header
from .packet import L4Header, Packet
from .tcp import TCPHeader
from .udp import UDPHeader


def frame_payload_len(frame_len: int, eth: EthernetHeader, ip: IPv4Header,
                      l4: L4Header) -> int:
    """Payload bytes that make ``eth``/``ip``/``l4`` a ``frame_len`` frame.

    Workload generators call this once per header stack and wrap every
    packet of a flow around the same (immutable) headers.
    """
    header_len = eth.header_len + ip.header_len + l4.header_len
    if frame_len < header_len:
        raise ValueError(
            f"frame_len {frame_len} smaller than header stack {header_len}")
    return frame_len - header_len


def udp_packet(src_mac: str, dst_mac: str, src_ip: str, dst_ip: str,
               src_port: int, dst_port: int, frame_len: int = 1000,
               flow_id: Optional[int] = None,
               seq_in_flow: Optional[int] = None) -> Packet:
    """A UDP frame of total on-wire size ``frame_len`` bytes."""
    eth = EthernetHeader(src_mac=src_mac, dst_mac=dst_mac)
    ip = IPv4Header(src_ip=src_ip, dst_ip=dst_ip, protocol=PROTO_UDP)
    l4 = UDPHeader(src_port=src_port, dst_port=dst_port)
    return Packet(eth=eth, ip=ip, l4=l4,
                  payload_len=frame_payload_len(frame_len, eth, ip, l4),
                  flow_id=flow_id, seq_in_flow=seq_in_flow)


def tcp_packet(src_mac: str, dst_mac: str, src_ip: str, dst_ip: str,
               src_port: int, dst_port: int, flags: int = 0,
               seq: int = 0, ack: int = 0, frame_len: int = 1000,
               flow_id: Optional[int] = None,
               seq_in_flow: Optional[int] = None) -> Packet:
    """A TCP frame of total on-wire size ``frame_len`` bytes."""
    eth = EthernetHeader(src_mac=src_mac, dst_mac=dst_mac)
    ip = IPv4Header(src_ip=src_ip, dst_ip=dst_ip, protocol=PROTO_TCP)
    l4 = TCPHeader(src_port=src_port, dst_port=dst_port, flags=flags,
                   seq=seq, ack=ack)
    return Packet(eth=eth, ip=ip, l4=l4,
                  payload_len=frame_payload_len(frame_len, eth, ip, l4),
                  flow_id=flow_id, seq_in_flow=seq_in_flow)


def tcp_control_packet(src_mac: str, dst_mac: str, src_ip: str, dst_ip: str,
                       src_port: int, dst_port: int, flags: int,
                       seq: int = 0, ack: int = 0,
                       flow_id: Optional[int] = None,
                       seq_in_flow: Optional[int] = None) -> Packet:
    """A minimum-size TCP control segment (SYN/ACK/FIN — no payload)."""
    eth = EthernetHeader(src_mac=src_mac, dst_mac=dst_mac)
    ip = IPv4Header(src_ip=src_ip, dst_ip=dst_ip, protocol=PROTO_TCP)
    l4 = TCPHeader(src_port=src_port, dst_port=dst_port, flags=flags,
                   seq=seq, ack=ack)
    return Packet(eth=eth, ip=ip, l4=l4, payload_len=0,
                  flow_id=flow_id, seq_in_flow=seq_in_flow)
