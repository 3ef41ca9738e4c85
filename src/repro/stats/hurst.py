"""Hurst-parameter estimation by the aggregated-variance method.

Section III-B of the paper estimates long-range dependence with the
*aggregated variance* method: divide the base series into blocks of m
values, average within blocks, and track how the variance of the block
means decays with m.  On a log-log "variance-time plot" a short-range
dependent process has slope β = −1 (H = 1/2); slopes shallower than −1
indicate long-range dependence via H = 1 − β/2.

The paper's variance-time plot (Fig 5) shows three regimes, which
:func:`segment_regimes` extracts: sub-50 ms (steeper than −1, the tick
periodicity smooths faster than Poisson), 50 ms–30 min (shallow slope —
map changes and population wander), and beyond 30 min (back to ≈ −1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.stats.regression import fit_line


@dataclass(frozen=True)
class VarianceTimePoint:
    """One point of a variance-time plot."""

    block_size: int
    interval_seconds: float
    normalized_variance: float

    @property
    def log_block_size(self) -> float:
        """log10 of the block size (the paper's x axis)."""
        return float(np.log10(self.block_size))

    @property
    def log_variance(self) -> float:
        """log10 of the normalised variance (the paper's y axis)."""
        return float(np.log10(self.normalized_variance))


@dataclass(frozen=True)
class VarianceTimePlot:
    """A full variance-time analysis of one series.

    Attributes
    ----------
    base_interval:
        Seconds per sample of the unaggregated series (the paper uses 10 ms).
    points:
        One :class:`VarianceTimePoint` per block size, ascending.
    """

    base_interval: float
    points: Tuple[VarianceTimePoint, ...]


def default_block_sizes(n: int, per_decade: int = 8, min_blocks: int = 8) -> List[int]:
    """Logarithmically spaced block sizes for a series of length ``n``.

    Ensures each aggregation level retains at least ``min_blocks`` blocks
    so its variance estimate is meaningful.
    """
    if n < 2 * min_blocks:
        raise ValueError(f"series too short for variance-time analysis: {n}")
    largest = n // min_blocks
    sizes: List[int] = []
    exponent = 0.0
    step = 1.0 / per_decade
    while True:
        size = int(round(10 ** exponent))
        if size > largest:
            break
        if not sizes or size > sizes[-1]:
            sizes.append(size)
        exponent += step
    return sizes


def _exact_cumulative_sum(series: np.ndarray) -> Optional[np.ndarray]:
    """The cumulative sum of ``series`` if every partial sum is exact, else None.

    Exact when the values are integers whose magnitudes sum to below
    2**53.  The tests and the sum share one buffer, so at most one
    full-length array besides ``series`` is alive.
    """
    buffer = np.floor(series)
    if not np.array_equal(buffer, series):
        return None
    np.abs(series, out=buffer)
    # a float sum of non-negative integers reaches 2**53 when the exact one does
    if not buffer.sum() < 2.0 ** 53:
        return None
    return np.cumsum(series, out=buffer)


def _block_variance(
    series: np.ndarray, cumulative: Optional[np.ndarray], m: int
) -> float:
    """``reshape(nblocks, m).mean(axis=1).var()`` of ``series``, bit for bit.

    The block means come from ``cumulative`` when it is given (see
    :func:`variance_time_plot`).  They are the one array made here: the
    variance takes ``np.var``'s steps (pairwise sum / n, subtract,
    square, pairwise sum / n) in their buffer, not in a deviation array
    of its own, and they are freed on return.  At m = 2 on a 2.16M-bin
    series they are 8.6 MB.
    """
    nblocks = series.size // m
    if cumulative is None:
        means = series[: nblocks * m].reshape(nblocks, m).mean(axis=1)
    else:
        ends = cumulative[m - 1 : nblocks * m : m]
        means = ends.copy()
        np.subtract(means[1:], ends[:-1], out=means[1:])
        np.divide(means, m, out=means)
    np.subtract(means, np.add.reduce(means) / nblocks, out=means)
    np.square(means, out=means)
    return float(np.add.reduce(means) / nblocks)


def variance_time_plot(
    series: np.ndarray,
    base_interval: float,
    block_sizes: Optional[Sequence[int]] = None,
) -> VarianceTimePlot:
    """Compute the aggregated-variance variance-time plot of ``series``.

    Parameters
    ----------
    series:
        The base-resolution count/rate series (e.g. packets per 10 ms bin).
    base_interval:
        Seconds per sample of ``series``.
    block_sizes:
        Aggregation levels m; defaults to :func:`default_block_sizes`.

    Variances are normalised by the variance of the unaggregated series,
    exactly as the paper describes.  Block sizes whose aggregated variance
    is zero (constant series) are skipped.

    The block means are ``reshape(nblocks, m).mean(axis=1)``'s, bit for
    bit, on either of two paths.  A count series (integer values, and
    the sum of their magnitudes below 2**53) takes every block sum from
    one cumulative sum: each partial sum, and each difference of two, is
    an integer of magnitude below 2**53, so all are exact, and so is the
    row sum ``mean`` takes in any order; both paths then divide the
    same exact sum by ``m``.  Any other series takes the reshape-mean.
    At ``m = 1`` the means are the series itself, so their variance is
    the base variance on both paths.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError("series must be 1-D")
    base_variance = float(series.var())
    if base_variance == 0:
        raise ValueError("series has zero variance; variance-time plot undefined")
    if block_sizes is None:
        block_sizes = default_block_sizes(series.size)
    cumulative = _exact_cumulative_sum(series)
    points: List[VarianceTimePoint] = []
    for m in block_sizes:
        m = int(m)
        if m < 1:
            raise ValueError(f"block size must be >= 1, got {m}")
        nblocks = series.size // m
        if nblocks < 2:
            continue
        if m == 1:
            variance = base_variance
        else:
            variance = _block_variance(series, cumulative, m)
        if variance <= 0:
            continue
        points.append(
            VarianceTimePoint(
                block_size=m,
                interval_seconds=m * base_interval,
                normalized_variance=variance / base_variance,
            )
        )
    if len(points) < 2:
        raise ValueError("too few usable block sizes for a variance-time plot")
    return VarianceTimePlot(base_interval=base_interval, points=tuple(points))


@dataclass(frozen=True)
class RegimeFit:
    """Slope/H of one timescale regime of a variance-time plot."""

    name: str
    min_interval: float
    max_interval: float
    slope: float
    hurst: float
    n_points: int


def segment_regimes(
    plot: VarianceTimePlot,
    boundaries: Sequence[float] = (0.05, 1800.0),
    names: Sequence[str] = ("sub-tick", "mid", "long-term"),
) -> List[RegimeFit]:
    """Fit each timescale regime of a variance-time plot separately.

    ``boundaries`` are the regime edges in seconds — the paper's are the
    50 ms tick and the 30 min map-rotation period.  Regimes with fewer
    than two points are skipped.
    """
    if len(names) != len(boundaries) + 1:
        raise ValueError("need exactly one more name than boundary")
    edges = [0.0, *boundaries, float("inf")]
    fits: List[RegimeFit] = []
    for i, name in enumerate(names):
        low, high = edges[i], edges[i + 1]
        selected = [
            p for p in plot.points if low <= p.interval_seconds <= high
        ]
        if len(selected) < 2:
            continue
        xs = np.asarray([p.log_block_size for p in selected])
        ys = np.asarray([p.log_variance for p in selected])
        if np.allclose(xs, xs[0]):
            continue
        fit = fit_line(xs, ys)
        fits.append(
            RegimeFit(
                name=name,
                min_interval=low,
                max_interval=high,
                slope=fit.slope,
                hurst=1.0 + fit.slope / 2.0,
                n_points=len(selected),
            )
        )
    return fits
