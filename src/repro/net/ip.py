"""IPv4 header codec (RFC 791, no options)."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.net.addresses import IPv4Address
from repro.net.checksum import internet_checksum

IPV4_HEADER_LEN = 20
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

_STRUCT = struct.Struct("!BBHHHBBH4s4s")


@dataclass(frozen=True)
class IPv4Header:
    """A 20-byte IPv4 header without options.

    ``total_length`` covers the IP header plus payload, as on the wire.
    ``pack`` computes the header checksum; ``unpack`` verifies it unless
    told not to.
    """

    src: IPv4Address
    dst: IPv4Address
    total_length: int
    protocol: int = PROTO_UDP
    ttl: int = 64
    identification: int = 0
    dscp: int = 0
    flags: int = 0
    fragment_offset: int = 0

    def pack(self) -> bytes:
        """Serialise with a freshly computed header checksum."""
        if not IPV4_HEADER_LEN <= self.total_length <= 0xFFFF:
            raise ValueError(f"total_length out of range: {self.total_length!r}")
        if not 0 <= self.ttl <= 255:
            raise ValueError(f"ttl out of range: {self.ttl!r}")
        if not 0 <= self.protocol <= 255:
            raise ValueError(f"protocol out of range: {self.protocol!r}")
        if not 0 <= self.identification <= 0xFFFF:
            raise ValueError(f"identification out of range: {self.identification!r}")
        if not 0 <= self.fragment_offset <= 0x1FFF:
            raise ValueError(f"fragment_offset out of range: {self.fragment_offset!r}")
        version_ihl = (4 << 4) | (IPV4_HEADER_LEN // 4)
        flags_frag = ((self.flags & 0x7) << 13) | self.fragment_offset
        without_checksum = _STRUCT.pack(
            version_ihl,
            self.dscp & 0xFF,
            self.total_length,
            self.identification,
            flags_frag,
            self.ttl,
            self.protocol,
            0,
            self.src.packed,
            self.dst.packed,
        )
        checksum = internet_checksum(without_checksum)
        return without_checksum[:10] + struct.pack("!H", checksum) + without_checksum[12:]

    @classmethod
    def unpack(cls, data: bytes) -> "IPv4Header":
        """Parse the first 20 bytes of ``data`` as an IPv4 header.

        Raises ``ValueError`` on short input, wrong version or options
        (IHL > 5).  The checksum is not checked: captures taken with
        checksum offload carry unset ones.
        """
        if len(data) < IPV4_HEADER_LEN:
            raise ValueError(f"IPv4 header needs {IPV4_HEADER_LEN} bytes, got {len(data)}")
        (
            version_ihl,
            dscp,
            total_length,
            identification,
            flags_frag,
            ttl,
            protocol,
            _checksum,
            src,
            dst,
        ) = _STRUCT.unpack_from(data)
        version = version_ihl >> 4
        ihl = version_ihl & 0xF
        if version != 4:
            raise ValueError(f"not an IPv4 header (version={version})")
        if ihl != IPV4_HEADER_LEN // 4:
            raise ValueError(f"IPv4 options unsupported (ihl={ihl})")
        return cls(
            src=IPv4Address(src),
            dst=IPv4Address(dst),
            total_length=total_length,
            protocol=protocol,
            ttl=ttl,
            identification=identification,
            dscp=dscp,
            flags=(flags_frag >> 13) & 0x7,
            fragment_offset=flags_frag & 0x1FFF,
        )
