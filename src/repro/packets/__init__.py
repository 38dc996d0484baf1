"""Packet and header models with byte-accurate wire sizes."""

from .ethernet import (ETHERTYPE_ARP, ETHERTYPE_IPV4, MAX_FRAME, MIN_FRAME,
                       EthernetHeader, int_to_mac, mac_to_int)
from .factory import (frame_payload_len, tcp_control_packet,
                      tcp_packet, udp_packet)
from .flowkey import FiveTuple
from .ipv4 import (PROTO_ICMP, PROTO_TCP, PROTO_UDP, IPv4Header, int_to_ip,
                   ip_to_int, proto_name)
from .packet import L4Header, Packet
from .serialize import (DecodeError, decode_packet, encode_packet,
                        internet_checksum)
from .tcp import (FLAG_ACK, FLAG_FIN, FLAG_PSH, FLAG_RST, FLAG_SYN,
                  TCPHeader, flags_to_str)
from .udp import UDPHeader

__all__ = [
    "EthernetHeader", "int_to_mac", "mac_to_int",
    "ETHERTYPE_IPV4", "ETHERTYPE_ARP", "MIN_FRAME", "MAX_FRAME",
    "IPv4Header", "ip_to_int", "int_to_ip", "proto_name",
    "PROTO_ICMP", "PROTO_TCP", "PROTO_UDP",
    "UDPHeader", "TCPHeader", "flags_to_str",
    "FLAG_FIN", "FLAG_SYN", "FLAG_RST", "FLAG_PSH", "FLAG_ACK",
    "FiveTuple", "Packet", "L4Header",
    "udp_packet", "tcp_packet", "tcp_control_packet", "frame_payload_len",
    "encode_packet", "decode_packet", "DecodeError", "internet_checksum",
]
