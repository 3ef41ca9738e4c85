"""Statistics toolkit: binning, histograms, regression, Hurst estimation.

All estimators are implemented from first principles (no scipy
dependence) so the methodology matches the paper's description exactly —
in particular the aggregated-variance Hurst estimator and its
variance-time plot, which drive Fig 5.
"""

from repro.stats.autocorr import (
    autocorrelation,
    burstiness_index,
    dominant_period,
    peak_to_mean_ratio,
)
from repro.stats.binning import BinnedSeries, bin_events
from repro.stats.descriptive import relative_error, within_factor
from repro.stats.histogram import EmpiricalCDF, Histogram, histogram
from repro.stats.hurst import (
    RegimeFit,
    VarianceTimePlot,
    VarianceTimePoint,
    default_block_sizes,
    segment_regimes,
    variance_time_plot,
)
from repro.stats.fitting import (
    FittedDistribution,
    fit_best,
    fit_exponential,
    fit_lognormal,
    fit_normal,
    ks_statistic,
)
from repro.stats.regression import LineFit, fit_line
from repro.stats.spectral import Periodogram, detect_tick_frequency, periodogram

__all__ = [
    "BinnedSeries",
    "EmpiricalCDF",
    "FittedDistribution",
    "Histogram",
    "LineFit",
    "Periodogram",
    "RegimeFit",
    "VarianceTimePlot",
    "VarianceTimePoint",
    "autocorrelation",
    "bin_events",
    "burstiness_index",
    "default_block_sizes",
    "detect_tick_frequency",
    "dominant_period",
    "fit_best",
    "fit_exponential",
    "fit_line",
    "fit_lognormal",
    "fit_normal",
    "ks_statistic",
    "periodogram",
    "histogram",
    "peak_to_mean_ratio",
    "relative_error",
    "segment_regimes",
    "variance_time_plot",
    "within_factor",
]
