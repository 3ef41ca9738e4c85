"""Flow extraction and per-flow statistics.

The paper's Fig 11 measures "the mean bandwidth consumed by each flow at
the server ... across all sessions in the trace that lasted longer than
30 sec".  A flow here is one client endpoint's bidirectional conversation
with the server, keyed by ``(client address, client port)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.net.addresses import IPv4Address
from repro.trace.packet import Direction
from repro.trace.trace import Trace


@dataclass(frozen=True)
class FlowStats:
    """Aggregate statistics of one client flow.

    ``mean_bandwidth_bps`` is wire bits per second over the flow's active
    interval, both directions combined — the quantity Fig 11 histograms.
    """

    client: IPv4Address
    client_port: int
    first_time: float
    last_time: float
    packets_in: int
    packets_out: int
    payload_bytes_in: int
    payload_bytes_out: int
    wire_bytes_in: int
    wire_bytes_out: int

    @property
    def duration(self) -> float:
        """Active seconds from first to last packet of the flow."""
        return self.last_time - self.first_time

    @property
    def wire_bytes(self) -> int:
        """Total wire bytes, both directions."""
        return self.wire_bytes_in + self.wire_bytes_out

    @property
    def mean_bandwidth_bps(self) -> float:
        """Mean bidirectional wire bandwidth in bits/second (0 if instantaneous)."""
        if self.duration <= 0:
            return 0.0
        return 8.0 * self.wire_bytes / self.duration


def extract_flows(trace: Trace) -> List[FlowStats]:
    """Group a trace into per-client flows (vectorised single pass).

    Returns flows ordered by first appearance.
    """
    n = len(trace)
    if n == 0:
        return []
    inbound = trace.directions == np.int8(Direction.IN)
    client_addrs = np.where(inbound, trace.src_addrs, trace.dst_addrs).astype(np.uint64)
    client_ports = np.where(inbound, trace.src_ports, trace.dst_ports).astype(np.uint64)
    keys = (client_addrs << np.uint64(16)) | client_ports

    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
    groups = np.split(order, boundaries)

    overhead = trace.overhead.per_packet
    flows: List[Tuple[float, FlowStats]] = []
    for group in groups:
        idx = np.sort(group)
        times = trace.timestamps[idx]
        dirs_in = inbound[idx]
        payloads = trace.payload_sizes[idx].astype(np.int64)
        packets_in = int(dirs_in.sum())
        packets_out = int(idx.size - packets_in)
        payload_in = int(payloads[dirs_in].sum())
        payload_out = int(payloads[~dirs_in].sum())
        first = int(idx[0])
        stats = FlowStats(
            client=IPv4Address(int(client_addrs[first])),
            client_port=int(client_ports[first]),
            first_time=float(times[0]),
            last_time=float(times[-1]),
            packets_in=packets_in,
            packets_out=packets_out,
            payload_bytes_in=payload_in,
            payload_bytes_out=payload_out,
            wire_bytes_in=payload_in + packets_in * overhead,
            wire_bytes_out=payload_out + packets_out * overhead,
        )
        flows.append((float(times[0]), stats))
    flows.sort(key=lambda pair: pair[0])
    return [stats for _, stats in flows]


def flow_bandwidths(
    trace: Trace, min_duration: float = 30.0
) -> np.ndarray:
    """Mean bandwidths (bps) of flows lasting at least ``min_duration`` seconds.

    This is exactly the population Fig 11 histograms (the paper uses a
    30 s cut-off to exclude probes and aborted joins).
    """
    return np.asarray(
        [
            flow.mean_bandwidth_bps
            for flow in extract_flows(trace)
            if flow.duration >= min_duration
        ],
        dtype=float,
    )
