"""Unit tests for Hurst estimation: the core of the Fig 5 methodology."""

import numpy as np
import pytest

from repro.stats.hurst import (
    default_block_sizes,
    segment_regimes,
    variance_time_plot,
)


def fractional_noise(hurst, n, seed=0):
    """Fractional Gaussian noise via spectral synthesis (good enough for tests)."""
    rng = np.random.default_rng(seed)
    frequencies = np.fft.rfftfreq(n, d=1.0)[1:]
    spectrum = frequencies ** (-(2 * hurst - 1) / 2.0)
    phases = rng.uniform(0, 2 * np.pi, size=spectrum.size)
    coefficients = np.concatenate(
        [[0.0], spectrum * np.exp(1j * phases)]
    )
    return np.fft.irfft(coefficients, n=n)


def _hurst(plot, max_interval=None):
    """H fitted over the plot's points up to ``max_interval`` (default all)."""
    if max_interval is None:
        (fit,) = segment_regimes(plot, boundaries=(), names=("all",))
        return fit.hurst
    return segment_regimes(plot, boundaries=(max_interval,), names=("low", "high"))[0].hurst


class TestVarianceTimePlot:
    def test_iid_noise_gives_half(self):
        series = np.random.default_rng(0).poisson(10, 50_000).astype(float)
        plot = variance_time_plot(series, 0.01)
        assert _hurst(plot) == pytest.approx(0.5, abs=0.06)

    def test_normalization_at_block_one(self):
        series = np.random.default_rng(1).normal(size=10_000)
        plot = variance_time_plot(series, 1.0, block_sizes=[1, 10, 100])
        assert plot.points[0].normalized_variance == pytest.approx(1.0)

    def test_long_range_dependent_series_high_h(self):
        series = fractional_noise(0.85, 2**15)
        estimate = _hurst(variance_time_plot(series, 1.0))
        assert estimate > 0.7

    def test_short_range_vs_long_range_ordering(self):
        srd = _hurst(variance_time_plot(fractional_noise(0.5, 2**14, seed=2), 1.0))
        lrd = _hurst(variance_time_plot(fractional_noise(0.9, 2**14, seed=2), 1.0))
        assert lrd > srd

    def test_periodic_series_sub_half(self):
        # deterministic bursts every 5 bins: aggregation over the period
        # kills variance faster than independence (the paper's sub-tick regime)
        series = np.tile([20.0, 0.0, 0.0, 0.0, 0.0], 10_000)
        series += np.random.default_rng(3).normal(0, 0.1, series.size)
        plot = variance_time_plot(series, 0.01)
        assert _hurst(plot, 0.05) < 0.4

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            variance_time_plot(np.ones(1000), 0.01)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            variance_time_plot(np.random.default_rng(0).normal(size=8), 0.01)

    def test_interval_seconds_consistent(self):
        series = np.random.default_rng(0).normal(size=10_000)
        plot = variance_time_plot(series, 0.01, block_sizes=[1, 10, 100])
        assert [p.interval_seconds for p in plot.points] == pytest.approx(
            [0.01, 0.1, 1.0]
        )


class TestDefaultBlockSizes:
    def test_monotone_and_bounded(self):
        sizes = default_block_sizes(100_000)
        assert sizes == sorted(set(sizes))
        assert sizes[0] == 1
        assert sizes[-1] <= 100_000 // 8

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            default_block_sizes(10)


class TestSegmentRegimes:
    def test_three_regimes_recovered(self):
        # build a synthetic VT plot directly from a composite series: periodic
        # (sub-tick) + random-walk-ish mid + iid long-term is hard to fake, so
        # just verify segmentation arithmetic on a real series
        series = np.tile([20.0, 0.0, 0.0, 0.0, 0.0], 40_000).astype(float)
        series += np.random.default_rng(6).normal(0, 0.5, series.size)
        plot = variance_time_plot(series, 0.01)
        regimes = segment_regimes(plot, boundaries=(0.05, 10.0),
                                  names=("a", "b", "c"))
        names = [r.name for r in regimes]
        assert "a" in names
        fit_a = next(r for r in regimes if r.name == "a")
        assert fit_a.hurst < 0.5

    def test_name_boundary_mismatch(self):
        series = np.random.default_rng(0).normal(size=10_000)
        plot = variance_time_plot(series, 0.01)
        with pytest.raises(ValueError):
            segment_regimes(plot, boundaries=(0.05,), names=("a", "b", "c"))

    def test_hurst_slope_relation(self):
        series = np.random.default_rng(7).normal(size=20_000)
        plot = variance_time_plot(series, 0.01)
        regimes = segment_regimes(plot, boundaries=(1.0,), names=("x", "y"))
        for regime in regimes:
            assert regime.hurst == pytest.approx(1.0 + regime.slope / 2.0)
