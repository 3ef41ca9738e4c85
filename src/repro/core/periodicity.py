"""Burst and periodicity analysis — Figs 6–8's quantitative backbone.

The paper's 10 ms plots show "an extremely bursty, highly periodic
pattern ... the game server deterministically flooding its clients with
state updates about every 50 ms", with the incoming load unsynchronised.
This module turns those visual claims into measurements: recovered tick
period, outbound burst duty cycle, and per-direction burstiness indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.stats.autocorr import burstiness_index, dominant_period, peak_to_mean_ratio
from repro.stats.binning import bin_events
from repro.trace.packet import Direction
from repro.trace.trace import Trace


@dataclass(frozen=True)
class PeriodicityAnalysis:
    """Tick-structure metrics of one trace window."""

    bin_size: float
    recovered_period_out: float
    burstiness_out: float
    burstiness_in: float
    peak_to_mean_out: float
    peak_to_mean_in: float
    #: Fraction of 10 ms bins carrying >= half the per-tick mean burst —
    #: for a clean 50 ms tick this sits near one bin in five.
    outbound_duty_cycle: float

    @classmethod
    def from_trace(
        cls,
        trace: Trace,
        bin_size: float = 0.010,
        max_period: float = 0.5,
    ) -> "PeriodicityAnalysis":
        """Measure the tick structure of a (short, packet-level) window."""
        if len(trace) == 0:
            raise ValueError("cannot analyse an empty trace")
        start, end = trace.start_time, trace.end_time
        outbound = trace.timestamps[trace.direction_mask(Direction.OUT)]
        inbound = trace.timestamps[trace.direction_mask(Direction.IN)]
        if outbound.size < 10 or inbound.size < 10:
            raise ValueError("window too small for periodicity analysis")
        out_counts = bin_events(
            outbound, bin_size, start_time=start, end_time=end
        ).counts
        in_counts = bin_events(
            inbound, bin_size, start_time=start, end_time=end
        ).counts
        period = dominant_period(
            out_counts, bin_size, max_period=max_period, min_period=2 * bin_size
        )
        burst_threshold = out_counts.mean() * 0.5 / max(
            1e-9, _expected_duty(period, bin_size)
        )
        duty = float((out_counts >= burst_threshold).mean())
        return cls(
            bin_size=bin_size,
            recovered_period_out=period,
            burstiness_out=burstiness_index(out_counts),
            burstiness_in=burstiness_index(in_counts),
            peak_to_mean_out=peak_to_mean_ratio(out_counts),
            peak_to_mean_in=peak_to_mean_ratio(in_counts),
            outbound_duty_cycle=duty,
        )

    def tick_matches(self, expected: float, tolerance: float = 0.2) -> bool:
        """True when the recovered period is within ``tolerance`` of expected."""
        if expected <= 0:
            raise ValueError(f"expected period must be positive: {expected!r}")
        return abs(self.recovered_period_out - expected) / expected <= tolerance


def _expected_duty(period: float, bin_size: float) -> float:
    """Fraction of bins containing a burst for a clean period."""
    bins_per_period = max(1.0, period / bin_size)
    return 1.0 / bins_per_period
