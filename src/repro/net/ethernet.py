"""Ethernet II frame header codec."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.net.addresses import MACAddress

ETHERNET_HEADER_LEN = 14
ETHERNET_FCS_LEN = 4
ETHERNET_MIN_PAYLOAD = 46
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

_STRUCT = struct.Struct("!6s6sH")


@dataclass(frozen=True)
class EthernetHeader:
    """An Ethernet II header (no 802.1Q tag).

    Attributes
    ----------
    dst, src:
        Destination and source MAC addresses.
    ethertype:
        EtherType field; :data:`ETHERTYPE_IPV4` for all game traffic.
    """

    dst: MACAddress
    src: MACAddress
    ethertype: int = ETHERTYPE_IPV4

    def pack(self) -> bytes:
        """Serialise to the 14-byte wire representation."""
        if not 0 <= self.ethertype <= 0xFFFF:
            raise ValueError(f"ethertype out of range: {self.ethertype!r}")
        return _STRUCT.pack(self.dst.packed, self.src.packed, self.ethertype)

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        """Parse the first 14 bytes of ``data`` as an Ethernet II header."""
        if len(data) < ETHERNET_HEADER_LEN:
            raise ValueError(
                f"Ethernet header needs {ETHERNET_HEADER_LEN} bytes, got {len(data)}"
            )
        dst, src, ethertype = _STRUCT.unpack_from(data)
        return cls(dst=MACAddress(dst), src=MACAddress(src), ethertype=ethertype)
