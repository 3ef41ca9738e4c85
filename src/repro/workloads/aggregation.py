"""Multi-server aggregation workloads.

§IV's warning: "a significant, concentrated deployment of on-line game
servers will have the potential for overwhelming current networking
equipment", and §IV-B's good news that aggregate demand "is effectively
linear to the number of active players".  This module builds the
aggregate of N co-located servers by merging independent windows of the
simulated week (re-based to a common origin, with distinct client
address blocks), the workload the aggregation experiment sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.trace.trace import Trace
from repro.workloads.scenarios import Scenario


def _rebase_and_renumber(trace: Trace, origin: float, address_offset: int) -> Trace:
    """Shift a trace window to t=0 and displace its client addresses."""
    server_value = trace.server_address.value if trace.server_address else None
    src = trace.src_addrs.astype(np.int64)
    dst = trace.dst_addrs.astype(np.int64)
    if server_value is not None:
        src = np.where(src == server_value, src, src + address_offset)
        dst = np.where(dst == server_value, dst, dst + address_offset)
    return Trace(
        timestamps=trace.timestamps - origin,
        directions=trace.directions,
        src_addrs=(src & 0xFFFFFFFF).astype(np.uint32),
        dst_addrs=(dst & 0xFFFFFFFF).astype(np.uint32),
        src_ports=trace.src_ports,
        dst_ports=trace.dst_ports,
        payload_sizes=trace.payload_sizes,
        protocols=trace.protocols,
        server_address=trace.server_address,
        overhead=trace.overhead,
        check_sorted=False,
    )


def aggregate_servers(
    scenario: Scenario,
    n_servers: int,
    window_length: float = 600.0,
    first_window_start: float = 3660.0,
    tick_interval: float = 0.050,
) -> Trace:
    """The merged traffic of ``n_servers`` co-located busy servers.

    Each server contributes a *different* window of the simulated week
    (equivalent to independent realisations — sessions are uncorrelated
    across windows), re-based to a common origin with disjoint client
    address blocks.  Tick phases are staggered across servers: real
    co-located servers are not clock-synchronised, and window re-basing
    would otherwise align every server's 50 ms flood on the same grid,
    producing superbursts no real deployment sees.
    """
    if n_servers < 1:
        raise ValueError(f"n_servers must be >= 1: {n_servers!r}")
    if window_length <= 0:
        raise ValueError(f"window_length must be positive: {window_length!r}")
    merged: Trace = None
    for index in range(n_servers):
        start = first_window_start + index * (window_length + 120.0)
        window = scenario.packet_window(start, start + window_length)
        phase = tick_interval * index / max(1, n_servers)
        shifted = _rebase_and_renumber(
            window, origin=start - phase, address_offset=(index + 1) << 20
        )
        merged = shifted if merged is None else merged.merge(shifted)
    return merged


def offered_pps(trace: Trace, window_length: float) -> float:
    """Mean offered packet rate of an aggregate."""
    if window_length <= 0:
        raise ValueError(f"window_length must be positive: {window_length!r}")
    return len(trace) / window_length


def required_capacity_linear(
    per_server_pps: float, n_servers: int, utilisation_target: float = 0.6
) -> float:
    """The linear provisioning rule: engine pps needed for N servers."""
    if per_server_pps <= 0:
        raise ValueError(f"per_server_pps must be positive: {per_server_pps!r}")
    if not 0.0 < utilisation_target <= 1.0:
        raise ValueError("utilisation_target must lie in (0, 1]")
    return per_server_pps * n_servers / utilisation_target
