"""UDP header codec (RFC 768)."""

from __future__ import annotations

import struct
from dataclasses import dataclass

UDP_HEADER_LEN = 8

_STRUCT = struct.Struct("!HHHH")


@dataclass(frozen=True)
class UDPHeader:
    """An 8-byte UDP header.

    ``length`` is the UDP length field (header + payload).  A checksum of
    0 means "not computed", which is legal for UDP over IPv4 and is what
    latency-sensitive game engines of the era commonly emitted.
    """

    src_port: int
    dst_port: int
    length: int
    checksum: int = 0

    def pack(self) -> bytes:
        """Serialise to the 8-byte wire representation."""
        for name in ("src_port", "dst_port", "length", "checksum"):
            value = getattr(self, name)
            if not 0 <= value <= 0xFFFF:
                raise ValueError(f"{name} out of range: {value!r}")
        if self.length < UDP_HEADER_LEN:
            raise ValueError(f"UDP length below header size: {self.length!r}")
        return _STRUCT.pack(self.src_port, self.dst_port, self.length, self.checksum)

    @classmethod
    def unpack(cls, data: bytes) -> "UDPHeader":
        """Parse the first 8 bytes of ``data`` as a UDP header."""
        if len(data) < UDP_HEADER_LEN:
            raise ValueError(f"UDP header needs {UDP_HEADER_LEN} bytes, got {len(data)}")
        src_port, dst_port, length, checksum = _STRUCT.unpack_from(data)
        return cls(src_port=src_port, dst_port=dst_port, length=length, checksum=checksum)
