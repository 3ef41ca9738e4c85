"""Histograms and empirical distribution functions.

Provides the PDF/CDF machinery behind the paper's packet-size figures
(Figs 12, 13) and the client-bandwidth histogram (Fig 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Histogram:
    """A fixed-width histogram over a bounded range.

    ``probabilities`` normalises to the *total sample count* (including
    out-of-range samples), matching how the paper truncates Fig 12 at
    500 bytes while noting "only a negligible number of packets exceeded
    this".
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    total_samples: int

    def __post_init__(self) -> None:
        if self.bin_edges.size != self.counts.size + 1:
            raise ValueError("bin_edges must have one more entry than counts")

    @property
    def bin_centers(self) -> np.ndarray:
        """Midpoint of each bin."""
        return (self.bin_edges[:-1] + self.bin_edges[1:]) / 2.0

    @property
    def probabilities(self) -> np.ndarray:
        """Per-bin probability mass (relative to all samples)."""
        if self.total_samples == 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / float(self.total_samples)

    def mode_bin(self) -> Tuple[float, float]:
        """(center, probability) of the most populated bin."""
        if self.counts.size == 0 or self.total_samples == 0:
            return (0.0, 0.0)
        index = int(np.argmax(self.counts))
        return (float(self.bin_centers[index]), float(self.probabilities[index]))


def histogram(
    samples: np.ndarray,
    bin_width: float,
    low: float = 0.0,
    high: Optional[float] = None,
) -> Histogram:
    """Histogram ``samples`` into fixed-width bins over ``[low, high)``.

    ``high`` defaults to the sample maximum rounded up to a bin boundary.
    Samples outside the range count toward ``total_samples`` but not any
    bin — this is the truncation semantics of the paper's Fig 12.
    """
    samples = np.asarray(samples, dtype=float)
    edges = _bin_edges(samples.max() if samples.size else None, bin_width, low, high)
    counts, _ = np.histogram(samples, bins=edges)
    return Histogram(bin_edges=edges, counts=counts.astype(np.int64), total_samples=int(samples.size))


def _bin_edges(
    top: Optional[float], bin_width: float, low: float, high: Optional[float]
) -> np.ndarray:
    """:func:`histogram`'s bin edges; ``top`` is the sample maximum (None if empty)."""
    if bin_width <= 0:
        raise ValueError(f"bin_width must be positive, got {bin_width!r}")
    if high is None:
        top = float(top) if top is not None else low + bin_width
        nbins = max(1, int(np.ceil((top - low) / bin_width + 1e-9)))
    else:
        if high <= low:
            raise ValueError(f"high {high!r} must exceed low {low!r}")
        nbins = max(1, int(np.round((high - low) / bin_width)))
    return low + bin_width * np.arange(nbins + 1)


@dataclass(frozen=True)
class EmpiricalCDF:
    """An empirical cumulative distribution function.

    Held as the samples' distinct ``values`` (ascending, as float64) and
    ``cumulative_counts``: ``cumulative_counts[k]`` samples lie below
    ``values[k]``, and the last entry is the sample count.  Packet sizes
    take a few hundred distinct values, so this is a few kilobytes
    where the sorted samples were megabytes.  (Distinct integers past
    2**53 can become equal floats; a repeated value changes no answer.)

    Every answer is the one the sorted samples give, bit for bit: the
    number of samples at or below (or below) ``x`` is the cumulative
    count at ``x``'s binary-search position among the distinct values,
    and the ``i``-th smallest sample is the value whose count range
    holds ``i``.  Evaluation is a binary search; ``quantile`` inverts it
    (type-1 / inverse-CDF convention).  The one thing the distinct
    values cannot keep is the sign of a zero: ``-0.0`` and ``0.0`` are
    one value, held as ``0.0``.
    """

    values: np.ndarray
    cumulative_counts: np.ndarray

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "EmpiricalCDF":
        """Build from raw (unsorted) samples of any real dtype.

        The samples are not cast: ``np.unique``'s sorted copy, in their
        own dtype, is the only full-length array made.
        """
        samples = np.asarray(samples)
        if samples.dtype.kind not in "biuf":
            samples = samples.astype(float)
        if samples.size == 0:
            raise ValueError("cannot build a CDF from zero samples")
        values, counts = np.unique(samples, return_counts=True)
        cumulative = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=cumulative[1:])
        # +0.0 turns -0.0 into 0.0
        return cls(values=values.astype(float) + 0.0, cumulative_counts=cumulative)

    @property
    def size(self) -> int:
        """The number of samples."""
        return int(self.cumulative_counts[-1])

    def histogram(
        self, bin_width: float, low: float = 0.0, high: Optional[float] = None
    ) -> Histogram:
        """:func:`histogram` of the same samples, counted from the cumulative counts.

        ``np.histogram`` with explicit edges counts each bin with binary
        searches on the sorted samples (left edges half-open, the last
        bin closed); the number of samples below (at or below) an edge
        is the cumulative count at the edge's left (right) search
        position among the distinct values.
        """
        values = self.values
        edges = _bin_edges(values[-1], bin_width, low, high)
        cumulative = self.cumulative_counts[
            np.concatenate(
                [
                    np.searchsorted(values, edges[:-1], side="left"),
                    np.searchsorted(values, edges[-1:], side="right"),
                ]
            )
        ]
        return Histogram(
            bin_edges=edges,
            counts=np.diff(cumulative),
            total_samples=self.size,
        )

    def __call__(self, x) -> np.ndarray:
        """P(X <= x), evaluated elementwise."""
        x = np.asarray(x, dtype=float)
        ranks = self.cumulative_counts[np.searchsorted(self.values, x, side="right")]
        result = ranks / self.size
        return float(result) if result.ndim == 0 else result

    def quantile(self, q) -> np.ndarray:
        """Smallest x with CDF(x) >= q, for q in (0, 1]."""
        q = np.asarray(q, dtype=float)
        if not np.all((q > 0) & (q <= 1)):
            raise ValueError("quantiles must lie in (0, 1]")
        n = self.size
        indices = np.minimum(np.ceil(q * n).astype(int) - 1, n - 1)
        slots = np.searchsorted(self.cumulative_counts, indices, side="right") - 1
        result = self.values[slots]
        return float(result) if result.ndim == 0 else result

    @property
    def median(self) -> float:
        """The 0.5 quantile."""
        return float(self.quantile(0.5))
