"""Ordinary least-squares line fitting.

Used for the variance-time plot's best-fit slope (Hurst estimation) and
the per-player linearity experiment.  Implemented directly (normal
equations on centred data) to keep the estimator auditable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LineFit:
    """Result of a least-squares line fit ``y ≈ slope * x + intercept``."""

    slope: float
    intercept: float
    r_squared: float
    n: int


def fit_line(x: np.ndarray, y: np.ndarray) -> LineFit:
    """Least-squares fit of a line through ``(x, y)``.

    Requires at least two points and non-degenerate x.  ``r_squared`` is
    1.0 for a perfect fit and 0.0 when the line explains nothing (or when
    y is constant, where the fit is exact anyway).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length 1-D arrays")
    if x.size < 2:
        raise ValueError(f"need at least 2 points, got {x.size}")
    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(np.dot(x - x_mean, x - x_mean))
    if sxx == 0:
        raise ValueError("x values are all identical; slope undefined")
    sxy = float(np.dot(x - x_mean, y - y_mean))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    syy = float(np.dot(y - y_mean, y - y_mean))
    if syy == 0:
        r_squared = 1.0
    else:
        residual = y - (slope * x + intercept)
        r_squared = 1.0 - float(np.dot(residual, residual)) / syy
    return LineFit(slope=slope, intercept=intercept, r_squared=r_squared, n=int(x.size))
