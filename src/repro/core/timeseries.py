"""Rate time-series extraction from traces (Figs 1, 2, 4, 6–10, 14, 15).

Thin, explicit wrappers over :mod:`repro.stats.binning` that know about
trace directions and wire-vs-application bytes, so every figure pipeline
reads as "trace → series → figure rows".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.stats.binning import BinnedSeries, bin_events
from repro.trace.packet import Direction
from repro.trace.trace import Trace


@dataclass(frozen=True)
class RateSeries:
    """Packet-rate and bandwidth series of one direction (or the total)."""

    label: str
    series: BinnedSeries

    @property
    def times(self) -> np.ndarray:
        """Left edge of each bin, seconds."""
        return self.series.times

    @property
    def packets_per_second(self) -> np.ndarray:
        """pps per bin (the paper's packet-load axis)."""
        return self.series.rates

    @property
    def kilobits_per_second(self) -> np.ndarray:
        """Wire kbps per bin (the paper's bandwidth axis)."""
        return self.series.bandwidth_bps() / 1000.0

    def mean_pps(self) -> float:
        """Mean packet rate over the series."""
        return float(self.packets_per_second.mean())

    def mean_kbps(self) -> float:
        """Mean bandwidth over the series."""
        return float(self.kilobits_per_second.mean())


def packet_load_series(
    trace: Trace,
    bin_size: float,
    direction: Optional[Direction] = None,
    start_time: Optional[float] = None,
    end_time: Optional[float] = None,
) -> RateSeries:
    """Bin a trace into a packet-load/bandwidth series.

    ``direction=None`` aggregates both directions.  Weights are wire
    bytes so the bandwidth axis matches Table II's accounting.

    Reads only the window's rows: a binary search on the sorted
    timestamps takes every row from one bin before ``start_time`` to
    two bins past ``end_time`` (``bin_events`` keeps events past
    ``end_time`` that fall in the last bin when the bin count rounds
    up), and :func:`bin_events` then applies its own in-range rule to
    those rows alone, in trace order, so every bin equals binning the
    whole direction.
    """
    if direction is None:
        label = "total"
    elif direction is Direction.IN:
        label = "in"
    else:
        direction, label = Direction.OUT, "out"
    start = trace.start_time if start_time is None else start_time
    end = trace.end_time if end_time is None else end_time
    timestamps = trace.timestamps
    lo = int(np.searchsorted(timestamps, start - bin_size, side="left"))
    hi = int(np.searchsorted(timestamps, end + 2 * bin_size, side="right"))
    times = timestamps[lo:hi]
    wire = trace.payload_sizes[lo:hi].astype(np.int64) + trace.overhead.per_packet
    if direction is not None:
        mask = trace.directions[lo:hi] == np.int8(direction)
        times = times[mask]
        wire = wire[mask]
    series = bin_events(
        times,
        bin_size,
        weights=wire.astype(float),
        start_time=start,
        end_time=end,
    )
    return RateSeries(label=label, series=series)


def interval_counts(
    trace: Trace,
    bin_size: float,
    n_intervals: int,
    direction: Optional[Direction] = None,
    start_time: Optional[float] = None,
) -> np.ndarray:
    """Packet rate (pps) of the first ``n_intervals`` bins — Figs 6–10.

    The paper plots "the first 200 m-intervals of the trace"; this is
    that extraction.
    """
    start = trace.start_time if start_time is None else start_time
    end = start + bin_size * n_intervals
    if end > trace.end_time + bin_size:
        raise ValueError(
            f"trace ends at t={trace.end_time:.3f}s, before the requested "
            f"{n_intervals} intervals of {bin_size}s from t={start:.3f}s"
        )
    series = packet_load_series(
        trace, bin_size, direction=direction, start_time=start, end_time=end
    )
    return series.packets_per_second[:n_intervals]
