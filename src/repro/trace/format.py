"""Compact columnar trace format (.npz) for fast save/reload.

A week-scale synthetic trace is tens of millions of packets; reparsing a
pcap for every analysis is wasteful.  This format stores the trace's
columns directly (numpy ``.npz``, optionally compressed) plus a small
metadata record (format version, server address, overhead model), and
loads back in milliseconds.
"""

from __future__ import annotations

import json
from typing import Optional, Union

import numpy as np

from repro.net.addresses import IPv4Address
from repro.net.headers import HeaderOverhead, OverheadModel
from repro.trace.trace import Trace

FORMAT_VERSION = 1


class TraceFormatError(ValueError):
    """Raised for malformed compact-trace input."""


def save_trace(trace: Trace, path: str, compressed: bool = True) -> None:
    """Save ``trace`` to ``path`` in the compact columnar format."""
    metadata = {
        "version": FORMAT_VERSION,
        "server_address": str(trace.server_address) if trace.server_address else None,
        "overhead": {
            "link": trace.overhead.overhead.link,
            "network": trace.overhead.overhead.network,
            "transport": trace.overhead.overhead.transport,
        },
        "packets": len(trace),
    }
    arrays = {
        "timestamps": trace.timestamps,
        "directions": trace.directions,
        "src_addrs": trace.src_addrs,
        "dst_addrs": trace.dst_addrs,
        "src_ports": trace.src_ports,
        "dst_ports": trace.dst_ports,
        "payload_sizes": trace.payload_sizes,
        "protocols": trace.protocols,
        "metadata": np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        ),
    }
    saver = np.savez_compressed if compressed else np.savez
    saver(path, **arrays)


def load_trace(path: str, server_address: Optional[IPv4Address] = None) -> Trace:
    """Load a trace previously stored by :func:`save_trace`.

    ``server_address`` overrides the stored one when provided.
    """
    with np.load(path) as archive:
        try:
            metadata = json.loads(bytes(archive["metadata"]).decode("utf-8"))
        except KeyError as exc:
            raise TraceFormatError(f"{path}: missing metadata record") from exc
        version = metadata.get("version")
        if version != FORMAT_VERSION:
            raise TraceFormatError(
                f"{path}: unsupported format version {version!r}"
            )
        stored_address = metadata.get("server_address")
        address: Optional[IPv4Address] = server_address
        if address is None and stored_address:
            address = IPv4Address(stored_address)
        overhead_meta = metadata.get("overhead") or {}
        overhead = OverheadModel(
            HeaderOverhead(
                link=int(overhead_meta.get("link", 0)),
                network=int(overhead_meta.get("network", 0)),
                transport=int(overhead_meta.get("transport", 0)),
            )
        )
        try:
            trace = Trace(
                timestamps=archive["timestamps"],
                directions=archive["directions"],
                src_addrs=archive["src_addrs"],
                dst_addrs=archive["dst_addrs"],
                src_ports=archive["src_ports"],
                dst_ports=archive["dst_ports"],
                payload_sizes=archive["payload_sizes"],
                protocols=archive["protocols"],
                server_address=address,
                overhead=overhead,
            )
        except KeyError as exc:
            raise TraceFormatError(f"{path}: missing column {exc}") from exc
        except ValueError as exc:
            # unequal columns, or timestamps out of order or NaN
            raise TraceFormatError(f"{path}: {exc}") from exc
    declared = metadata.get("packets")
    if declared is not None and declared != len(trace):
        raise TraceFormatError(
            f"{path}: metadata declares {declared} packets, file has {len(trace)}"
        )
    return trace
