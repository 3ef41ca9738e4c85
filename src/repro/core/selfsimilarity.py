"""Variance-time / Hurst analysis of the server load — the paper's Fig 5.

The paper computes the aggregated-variance plot of the total packet-load
series at a 10 ms base interval over the whole week, finding three
regimes split at 50 ms (the tick) and 30 min (the map rotation).

Materialising a week at 10 ms as packets is unnecessary: this module
stitches a *high-resolution window* (10 ms bins over hours, packet-level
or count-level) with a *long-horizon series* (per-second counts over the
week).  Both estimate the same block-mean variances; the long curve is
rescaled for continuity at an overlap interval, giving one normalized
variance-time plot spanning 10 ms to days — the span Fig 5 shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.stats.hurst import (
    RegimeFit,
    VarianceTimePlot,
    VarianceTimePoint,
    segment_regimes,
    variance_time_plot,
)

#: The paper's regime boundaries: the 50 ms tick and the 30 min map time.
TICK_BOUNDARY = 0.050
MAP_BOUNDARY = 1800.0


def variance_time_from_counts(
    counts: np.ndarray,
    base_interval: float,
    block_sizes: Optional[Sequence[int]] = None,
) -> VarianceTimePlot:
    """Variance-time plot of a pre-binned count series."""
    return variance_time_plot(
        np.asarray(counts, dtype=float), base_interval, block_sizes=block_sizes
    )


def stitch_variance_time(
    highres: VarianceTimePlot,
    longres: VarianceTimePlot,
    overlap_interval: Optional[float] = None,
) -> VarianceTimePlot:
    """Combine a short high-resolution and a long low-resolution VT plot.

    Both plots must be expressed in the same base-interval units only
    internally; stitching works on the (interval_seconds, normalized
    variance) pairs.  The long plot is rescaled so its variance matches
    the high-resolution plot at ``overlap_interval`` (default: the
    smallest interval present in both), then its points beyond the
    high-resolution plot's reach are appended.  Block sizes of appended
    points are re-expressed in the high-resolution base interval so the
    x-axis stays consistent (log10 m with m in base-interval units, as
    in the paper).
    """
    high_by_interval = {p.interval_seconds: p for p in highres.points}
    long_intervals = sorted(p.interval_seconds for p in longres.points)
    if overlap_interval is None:
        candidates = [t for t in long_intervals if t in high_by_interval]
        if not candidates:
            # fall back to nearest pair within 1% relative distance
            candidates = [
                t
                for t in long_intervals
                if any(abs(t - h) / h < 0.01 for h in high_by_interval)
            ]
        if not candidates:
            raise ValueError("plots share no overlapping interval to stitch at")
        overlap_interval = candidates[0]

    def value_at(plot: VarianceTimePlot, interval: float) -> float:
        best = min(plot.points, key=lambda p: abs(p.interval_seconds - interval))
        if abs(best.interval_seconds - interval) / interval > 0.01:
            raise ValueError(
                f"no variance-time point near interval {interval}s in plot"
            )
        return best.normalized_variance

    scale = value_at(highres, overlap_interval) / value_at(longres, overlap_interval)
    max_high = max(p.interval_seconds for p in highres.points)
    base = highres.base_interval
    merged: List[VarianceTimePoint] = list(highres.points)
    for point in longres.points:
        if point.interval_seconds <= max_high:
            continue
        merged.append(
            VarianceTimePoint(
                block_size=int(round(point.interval_seconds / base)),
                interval_seconds=point.interval_seconds,
                normalized_variance=point.normalized_variance * scale,
            )
        )
    merged.sort(key=lambda p: p.interval_seconds)
    return VarianceTimePlot(base_interval=base, points=tuple(merged))


@dataclass(frozen=True)
class SelfSimilarityReport:
    """The Fig 5 deliverable: the plot plus per-regime slopes and H values."""

    plot: VarianceTimePlot
    regimes: Tuple[RegimeFit, ...]

    @classmethod
    def from_plot(
        cls,
        plot: VarianceTimePlot,
        boundaries: Tuple[float, float] = (TICK_BOUNDARY, MAP_BOUNDARY),
    ) -> "SelfSimilarityReport":
        """Segment a VT plot at the paper's regime boundaries."""
        regimes = segment_regimes(
            plot,
            boundaries=boundaries,
            names=("sub-tick", "mid", "long-term"),
        )
        return cls(plot=plot, regimes=tuple(regimes))

    def regime(self, name: str) -> RegimeFit:
        """Fetch one regime fit by name."""
        for fit in self.regimes:
            if fit.name == name:
                return fit
        raise KeyError(f"no regime named {name!r}")

    @property
    def sub_tick_hurst(self) -> float:
        """H below 50 ms (paper: < 1/2 — periodicity smooths aggregation)."""
        return self.regime("sub-tick").hurst

    @property
    def mid_hurst(self) -> float:
        """H between 50 ms and 30 min (paper: elevated — sustained variability)."""
        return self.regime("mid").hurst

    @property
    def long_term_hurst(self) -> float:
        """H beyond 30 min (paper: ≈ 1/2 — short-range dependent)."""
        return self.regime("long-term").hurst

    def matches_paper_shape(self) -> bool:
        """The qualitative Fig 5 claim: H_sub < 1/2, H_mid > H_long, H_long ≈ 1/2."""
        try:
            sub = self.sub_tick_hurst
            mid = self.mid_hurst
            long_term = self.long_term_hurst
        except KeyError:
            return False
        return sub < 0.5 and mid > long_term and abs(long_term - 0.5) < 0.2
