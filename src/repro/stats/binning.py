"""Time binning of event streams into rate series.

Converts packet timestamps (+ optional per-packet weights such as byte
sizes) into fixed-interval count/rate series — the primitive behind every
time-series figure in the paper (Figs 1, 2, 4, 6–10, 14, 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class BinnedSeries:
    """A fixed-interval aggregation of an event stream.

    Attributes
    ----------
    bin_size:
        Interval length in seconds (the paper's ``m``).
    start_time:
        Timestamp of the left edge of bin 0.
    counts:
        Events per bin.
    weights:
        Sum of per-event weights per bin (bytes, when weights are sizes);
        equals ``counts`` when the stream was binned unweighted.
    """

    bin_size: float
    start_time: float
    counts: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return int(self.counts.size)

    @property
    def rates(self) -> np.ndarray:
        """Events per second in each bin."""
        return self.counts / self.bin_size


def bin_events(
    timestamps: np.ndarray,
    bin_size: float,
    weights: Optional[np.ndarray] = None,
    start_time: float = 0.0,
    end_time: Optional[float] = None,
) -> BinnedSeries:
    """Bin event timestamps into fixed intervals of ``bin_size`` seconds.

    Parameters
    ----------
    timestamps:
        Event times in seconds (need not be sorted).
    bin_size:
        Interval length (> 0).
    weights:
        Optional per-event weights (e.g. byte sizes); default weight 1.
    start_time:
        Left edge of the first bin (default 0, trace-relative).
    end_time:
        Right edge of the covered span; defaults to the last event.  The
        number of bins is ``ceil((end_time - start_time) / bin_size)`` so
        trailing silence still produces (empty) bins — important for rate
        plots across outages.
    """
    if bin_size <= 0:
        raise ValueError(f"bin_size must be positive, got {bin_size!r}")
    timestamps = np.asarray(timestamps, dtype=np.float64)
    if end_time is None:
        end_time = float(timestamps.max()) if timestamps.size else start_time
    if end_time < start_time:
        raise ValueError(f"end_time {end_time!r} before start_time {start_time!r}")
    span = end_time - start_time
    nbins = max(1, int(np.ceil(span / bin_size))) if span > 0 else 1

    if timestamps.size == 0:
        zeros = np.zeros(nbins)
        return BinnedSeries(bin_size, start_time, zeros, zeros.copy())

    indices = np.floor((timestamps - start_time) / bin_size).astype(np.int64)
    # an event exactly at end_time belongs to the last bin: the common
    # caller passes end_time = last event's timestamp, and dropping that
    # packet would silently understate every figure's final bin
    indices[(indices == nbins) & (timestamps == end_time)] = nbins - 1
    in_range = (indices >= 0) & (indices < nbins)
    indices = indices[in_range]
    counts = np.bincount(indices, minlength=nbins).astype(np.float64)
    if weights is None:
        weight_sums = counts.copy()
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (np.asarray(timestamps).size,):
            raise ValueError("weights must match timestamps length")
        weight_sums = np.bincount(
            indices, weights=weights[in_range], minlength=nbins
        ).astype(np.float64)
    return BinnedSeries(bin_size, start_time, counts, weight_sums)
