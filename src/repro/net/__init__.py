"""Protocol header codecs and overhead accounting.

Implements from scratch the pieces of the wire stack the paper's trace
touches: MAC/IPv4 addresses, Ethernet II framing, IPv4 and UDP headers
(including the Internet checksum), and the header-overhead model used to
convert between application payload bytes and on-the-wire bytes — the
distinction between the paper's Table II (wire) and Table III (application).
"""

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetHeader
from repro.net.headers import HeaderOverhead, OverheadModel, WIRE_OVERHEAD_UDP_V4
from repro.net.ip import IPV4_HEADER_LEN, IPv4Header, PROTO_TCP, PROTO_UDP
from repro.net.udp import UDP_HEADER_LEN, UDPHeader

__all__ = [
    "ETHERTYPE_IPV4",
    "EthernetHeader",
    "HeaderOverhead",
    "IPV4_HEADER_LEN",
    "IPv4Address",
    "IPv4Header",
    "MACAddress",
    "OverheadModel",
    "PROTO_TCP",
    "PROTO_UDP",
    "UDP_HEADER_LEN",
    "UDPHeader",
    "WIRE_OVERHEAD_UDP_V4",
]
