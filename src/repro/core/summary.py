"""Trace summaries: the paper's Tables I, II and III.

Table I is session-level (maps, connections, unique clients); Tables II
and III are packet-level (network usage including headers, application
usage excluding them).  Table II/III quantities scale linearly with the
analysed window, so :class:`NetworkUsage` reports rates alongside totals
and can extrapolate totals to the paper's full-week horizon for
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gameserver.population import PopulationResult
from repro.trace.packet import Direction
from repro.trace.trace import Trace


@dataclass(frozen=True)
class GeneralTraceInfo:
    """Table I — general trace information."""

    total_time: float
    maps_played: int
    established_connections: int
    unique_clients_establishing: int
    attempted_connections: int
    unique_clients_attempting: int
    mean_session_minutes: float
    mean_sessions_per_client: float

    @classmethod
    def from_population(cls, population: PopulationResult) -> "GeneralTraceInfo":
        """Compute Table I from a session-level result."""
        return cls(
            total_time=population.profile.duration,
            maps_played=population.maps_played,
            established_connections=population.established_count,
            unique_clients_establishing=population.unique_establishing,
            attempted_connections=population.attempted_count,
            unique_clients_attempting=population.unique_attempting,
            mean_session_minutes=population.mean_session_duration() / 60.0,
            mean_sessions_per_client=population.mean_sessions_per_client(),
        )


@dataclass(frozen=True)
class NetworkUsage:
    """Table II — network usage (wire bytes), plus Table III (application).

    All byte totals are for the analysed window; ``*_rate`` fields are
    window-independent and are what EXPERIMENTS.md compares against the
    paper.
    """

    duration: float
    total_packets: int
    packets_in: int
    packets_out: int
    wire_bytes: int
    wire_bytes_in: int
    wire_bytes_out: int
    app_bytes: int
    app_bytes_in: int
    app_bytes_out: int

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace, duration: float = 0.0) -> "NetworkUsage":
        """Compute usage from a packet trace.

        ``duration`` overrides the trace's first-to-last span (use the
        window length so idle tails count toward rates).  Reads only the
        ``directions`` and ``payload_sizes`` columns: per-direction
        counts and integer payload sums, exact in any order.
        """
        span = duration if duration > 0 else trace.duration
        if span <= 0:
            raise ValueError("cannot compute rates over a zero-length window")
        payload = trace.payload_sizes
        wire_total = trace.overhead.wire_bytes_total
        app_bytes = trace.total_payload_bytes
        inbound = trace.direction_mask(Direction.IN)
        outbound = trace.direction_mask(Direction.OUT)
        packets_in = int(np.count_nonzero(inbound))
        packets_out = int(np.count_nonzero(outbound))
        # a zeroed copy sums faster than a masked reduction
        app_in = int((payload * inbound).sum(dtype=np.int64))
        app_out = int((payload * outbound).sum(dtype=np.int64))
        return cls(
            duration=span,
            total_packets=len(trace),
            packets_in=packets_in,
            packets_out=packets_out,
            wire_bytes=wire_total(app_bytes, len(trace)),
            wire_bytes_in=wire_total(app_in, packets_in),
            wire_bytes_out=wire_total(app_out, packets_out),
            app_bytes=app_bytes,
            app_bytes_in=app_in,
            app_bytes_out=app_out,
        )

    # -- Table II rows ---------------------------------------------------
    @property
    def mean_packet_load(self) -> float:
        """Packets/second, both directions (paper: 798.11)."""
        return self.total_packets / self.duration

    @property
    def mean_packet_load_in(self) -> float:
        """Inbound packets/second (paper: 437.12)."""
        return self.packets_in / self.duration

    @property
    def mean_packet_load_out(self) -> float:
        """Outbound packets/second (paper: 360.99)."""
        return self.packets_out / self.duration

    @property
    def mean_bandwidth_kbps(self) -> float:
        """Wire kilobits/second (paper: 883)."""
        return 8.0 * self.wire_bytes / self.duration / 1000.0

    @property
    def mean_bandwidth_in_kbps(self) -> float:
        """Inbound wire kilobits/second (paper: 341)."""
        return 8.0 * self.wire_bytes_in / self.duration / 1000.0

    @property
    def mean_bandwidth_out_kbps(self) -> float:
        """Outbound wire kilobits/second (paper: 542)."""
        return 8.0 * self.wire_bytes_out / self.duration / 1000.0

    # -- Table III rows -----------------------------------------------------
    @property
    def mean_packet_size(self) -> float:
        """Mean application payload bytes (paper: 80.33)."""
        return self.app_bytes / self.total_packets if self.total_packets else 0.0

    @property
    def mean_packet_size_in(self) -> float:
        """Mean inbound payload bytes (paper: 39.72)."""
        return self.app_bytes_in / self.packets_in if self.packets_in else 0.0

    @property
    def mean_packet_size_out(self) -> float:
        """Mean outbound payload bytes (paper: 129.51)."""
        return self.app_bytes_out / self.packets_out if self.packets_out else 0.0

    # ------------------------------------------------------------------
    def extrapolate_packets(self, horizon: float) -> float:
        """Expected packets over ``horizon`` seconds at this window's rates.

        The paper's 500 M packets over 626,477 s is the reference point.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive: {horizon!r}")
        return self.mean_packet_load * horizon

    def extrapolate_wire_gigabytes(self, horizon: float) -> float:
        """Expected wire GB over ``horizon`` seconds (paper: 64.42 GB/week)."""
        if horizon <= 0:
            raise ValueError(f"horizon must be positive: {horizon!r}")
        return self.wire_bytes / self.duration * horizon / 1e9
