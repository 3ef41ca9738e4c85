"""The Internet checksum (RFC 1071) of the IPv4 header."""

from __future__ import annotations


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement Internet checksum of ``data``.

    Odd-length input is zero-padded on the right as the RFC specifies.
    The return value is already complemented — store it directly in the
    header field.  Verifying a header that contains its checksum yields 0.
    """
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF
