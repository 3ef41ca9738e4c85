"""Classic libpcap file format reader and writer, from scratch.

Implements the 24-byte libpcap global header and 16-byte per-packet
record headers (both endiannesses, micro- and nanosecond variants) so
the analysis toolchain can ingest real captures as well as synthetic
traces.  Writing materialises each packet as a well-formed Ethernet +
IPv4 + UDP frame whose payload is zero bytes of the recorded length, so
round-tripping preserves exactly the fields the paper's analyses use.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Optional, Union

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.ethernet import ETHERNET_HEADER_LEN, ETHERTYPE_IPV4, EthernetHeader
from repro.net.headers import OverheadModel
from repro.net.ip import IPV4_HEADER_LEN, IPv4Header, PROTO_UDP
from repro.net.udp import UDP_HEADER_LEN, UDPHeader
from repro.trace.packet import Direction
from repro.trace.trace import Trace, TraceBuilder

MAGIC_MICROS = 0xA1B2C3D4
MAGIC_NANOS = 0xA1B23C4D
LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER = struct.Struct("IHHiIII")
_RECORD_HEADER = struct.Struct("IIII")

#: MAC addresses used when synthesising frames (content is irrelevant to
#: the analyses; fixed values keep output deterministic).
SERVER_MAC = MACAddress("02:00:00:00:00:01")
CLIENT_MAC = MACAddress("02:00:00:00:00:02")


class PcapFormatError(ValueError):
    """Raised for malformed pcap input."""


@dataclass(frozen=True)
class PcapHeader:
    """Parsed libpcap global header."""

    byte_order: str  # "<" or ">"
    nanosecond: bool
    version_major: int
    version_minor: int
    snaplen: int
    linktype: int


def _read_global_header(stream: BinaryIO) -> PcapHeader:
    raw = stream.read(24)
    if len(raw) < 24:
        raise PcapFormatError("truncated pcap global header")
    for byte_order in ("<", ">"):
        magic = struct.unpack(byte_order + "I", raw[:4])[0]
        if magic in (MAGIC_MICROS, MAGIC_NANOS):
            major, minor, _thiszone, _sigfigs, snaplen, linktype = struct.unpack(
                byte_order + "HHiIII", raw[4:]
            )
            return PcapHeader(
                byte_order=byte_order,
                nanosecond=(magic == MAGIC_NANOS),
                version_major=major,
                version_minor=minor,
                snaplen=snaplen,
                linktype=linktype,
            )
    raise PcapFormatError(f"bad pcap magic: {raw[:4].hex()}")


def write_pcap(
    trace: Trace,
    destination: Union[str, BinaryIO],
    nanosecond: bool = False,
    snaplen: int = 65535,
) -> int:
    """Write ``trace`` as a libpcap file with synthesised Ethernet frames.

    Returns the number of packets written.  ``destination`` may be a path
    or a binary file object.
    """
    if isinstance(destination, str):
        with open(destination, "wb") as handle:
            return write_pcap(trace, handle, nanosecond=nanosecond, snaplen=snaplen)
    stream = destination
    magic = MAGIC_NANOS if nanosecond else MAGIC_MICROS
    stream.write(
        struct.pack("<IHHiIII", magic, 2, 4, 0, 0, snaplen, LINKTYPE_ETHERNET)
    )
    scale = 1_000_000_000 if nanosecond else 1_000_000
    written = 0
    for i in range(len(trace)):
        timestamp = float(trace.timestamps[i])
        seconds = int(timestamp)
        fraction = int(round((timestamp - seconds) * scale))
        if fraction >= scale:  # rounding carried into the next second
            seconds += 1
            fraction -= scale
        direction = Direction(int(trace.directions[i]))
        src_mac, dst_mac = (
            (CLIENT_MAC, SERVER_MAC) if direction is Direction.IN else (SERVER_MAC, CLIENT_MAC)
        )
        payload = bytes(int(trace.payload_sizes[i]))
        frame = _build_frame(
            src_mac,
            dst_mac,
            IPv4Address(int(trace.src_addrs[i])),
            IPv4Address(int(trace.dst_addrs[i])),
            int(trace.src_ports[i]),
            int(trace.dst_ports[i]),
            payload,
        )
        stream.write(
            struct.pack("<IIII", seconds, fraction, len(frame), len(frame))
        )
        stream.write(frame)
        written += 1
    return written


def _build_frame(
    src_mac: MACAddress,
    dst_mac: MACAddress,
    src_ip: IPv4Address,
    dst_ip: IPv4Address,
    src_port: int,
    dst_port: int,
    payload: bytes,
) -> bytes:
    eth = EthernetHeader(dst=dst_mac, src=src_mac, ethertype=ETHERTYPE_IPV4).pack()
    udp = UDPHeader(src_port, dst_port, UDP_HEADER_LEN + len(payload), 0).pack()
    ip = IPv4Header(
        src=src_ip,
        dst=dst_ip,
        total_length=IPV4_HEADER_LEN + UDP_HEADER_LEN + len(payload),
        protocol=PROTO_UDP,
    ).pack()
    return eth + ip + udp + payload


def read_pcap(
    source: Union[str, BinaryIO],
    server_address: Optional[IPv4Address] = None,
    overhead: Optional[OverheadModel] = None,
    strict: bool = False,
) -> Trace:
    """Read a libpcap file into a :class:`Trace`.

    Direction is classified against ``server_address``: packets destined
    to it are ``IN``, packets sourced from it are ``OUT``.  When no
    server address is given, the destination of the first packet is
    assumed to be the server (a tcpdump filter on the server host yields
    exactly that framing).

    Non-IPv4/non-parseable records raise in ``strict`` mode and are
    skipped otherwise.  Timestamps are rebased so the first packet is at
    t = 0, matching how the paper reports trace-relative time.
    """
    if isinstance(source, str):
        with open(source, "rb") as handle:
            return read_pcap(
                handle, server_address=server_address, overhead=overhead, strict=strict
            )
    stream = source
    header = _read_global_header(stream)
    if header.linktype != LINKTYPE_ETHERNET:
        raise PcapFormatError(f"unsupported linktype {header.linktype}")
    scale = 1e-9 if header.nanosecond else 1e-6
    record_fmt = header.byte_order + "IIII"
    builder = TraceBuilder(server_address=server_address, overhead=overhead)
    first_timestamp: Optional[float] = None
    server_value: Optional[int] = server_address.value if server_address else None

    while True:
        raw = stream.read(16)
        if not raw:
            break
        if len(raw) < 16:
            raise PcapFormatError("truncated pcap record header")
        seconds, fraction, caplen, _origlen = struct.unpack(record_fmt, raw)
        frame = stream.read(caplen)
        if len(frame) < caplen:
            raise PcapFormatError("truncated pcap packet data")
        try:
            eth = EthernetHeader.unpack(frame)
            if eth.ethertype != ETHERTYPE_IPV4:
                raise ValueError(f"non-IPv4 ethertype {eth.ethertype:#06x}")
            ip = IPv4Header.unpack(frame[ETHERNET_HEADER_LEN:])
            ip_payload = frame[
                ETHERNET_HEADER_LEN
                + IPV4_HEADER_LEN : ETHERNET_HEADER_LEN
                + ip.total_length
            ]
            if ip.protocol == PROTO_UDP:
                udp = UDPHeader.unpack(ip_payload)
                src_port, dst_port = udp.src_port, udp.dst_port
                payload_size = max(0, udp.length - UDP_HEADER_LEN)
            else:
                src_port = dst_port = 0
                payload_size = max(0, ip.total_length - IPV4_HEADER_LEN)
        except ValueError:
            if strict:
                raise PcapFormatError(f"unparseable frame at packet {len(builder)}")
            continue

        timestamp = seconds + fraction * scale
        if first_timestamp is None:
            first_timestamp = timestamp
            if server_value is None:
                server_value = ip.dst.value
        direction = Direction.IN if ip.dst.value == server_value else Direction.OUT
        builder.add(
            timestamp - first_timestamp,
            direction,
            ip.src.value,
            ip.dst.value,
            src_port,
            dst_port,
            payload_size,
            ip.protocol,
        )

    trace = builder.build()
    if trace.server_address is None and server_value is not None:
        trace.server_address = IPv4Address(server_value)
    return trace
