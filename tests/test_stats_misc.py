"""Unit tests for regression, descriptive stats, and autocorrelation."""

import numpy as np
import pytest

from repro.stats.autocorr import (
    autocorrelation,
    burstiness_index,
    dominant_period,
    peak_to_mean_ratio,
)
from repro.stats.descriptive import relative_error, within_factor
from repro.stats.regression import fit_line


class TestFitLine:
    def test_exact_line_recovered(self):
        x = np.asarray([0.0, 1.0, 2.0, 3.0])
        fit = fit_line(x, 2.0 * x + 1.0)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_line(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 10, 200)
        y = 3.0 * x - 5.0 + rng.normal(0, 0.5, x.size)
        fit = fit_line(x, y)
        assert fit.slope == pytest.approx(3.0, abs=0.1)
        assert fit.r_squared > 0.98

    def test_constant_y_r_squared_one(self):
        fit = fit_line(np.asarray([0.0, 1.0]), np.asarray([3.0, 3.0]))
        assert fit.slope == 0.0
        assert fit.r_squared == 1.0

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_line(np.asarray([1.0]), np.asarray([1.0]))
        with pytest.raises(ValueError):
            fit_line(np.asarray([1.0, 1.0]), np.asarray([1.0, 2.0]))
        with pytest.raises(ValueError):
            fit_line(np.asarray([1.0, 2.0]), np.asarray([1.0]))


class TestDescriptive:
    def test_relative_error(self):
        assert relative_error(110.0, 100.0) == pytest.approx(0.1)
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(1.0, 0.0) == float("inf")

    @pytest.mark.parametrize(
        "measured,reference,factor,expected",
        [
            (100.0, 100.0, 1.0, True),
            (149.0, 100.0, 1.5, True),
            (151.0, 100.0, 1.5, False),
            (67.0, 100.0, 1.5, True),
            (66.0, 100.0, 1.5, False),
            (0.0, 0.0, 2.0, True),
            (0.0, 1.0, 2.0, False),
        ],
    )
    def test_within_factor(self, measured, reference, factor, expected):
        assert within_factor(measured, reference, factor) is expected

    def test_within_factor_invalid(self):
        with pytest.raises(ValueError):
            within_factor(1.0, 1.0, 0.5)


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        series = np.random.default_rng(0).normal(size=100)
        assert autocorrelation(series, 5)[0] == 1.0

    def test_periodic_series_peaks_at_period(self):
        series = np.tile([10.0, 0.0, 0.0, 0.0, 0.0], 200)
        acf = autocorrelation(series, 12)
        assert acf[5] > 0.9
        assert acf[10] > 0.9
        assert acf[3] < 0.0

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation(np.ones(100), 5)

    def test_lag_bounds(self):
        series = np.random.default_rng(0).normal(size=10)
        with pytest.raises(ValueError):
            autocorrelation(series, 10)
        with pytest.raises(ValueError):
            autocorrelation(series, -1)

    def test_dominant_period_recovers_tick(self):
        series = np.tile([22.0, 0.0, 0.0, 0.0, 0.0], 1000)
        series += np.random.default_rng(1).normal(0, 0.5, series.size)
        period = dominant_period(series, 0.01, max_period=0.3, min_period=0.02)
        assert period == pytest.approx(0.05)

    def test_dominant_period_bad_window(self):
        with pytest.raises(ValueError):
            dominant_period(np.ones(10), 0.01, max_period=0.001)


class TestBurstiness:
    def test_poisson_near_one(self):
        counts = np.random.default_rng(0).poisson(8, 100_000).astype(float)
        assert burstiness_index(counts) == pytest.approx(1.0, abs=0.05)

    def test_bursty_series_above_one(self):
        series = np.tile([50.0, 0.0, 0.0, 0.0, 0.0], 100)
        assert burstiness_index(series) > 5.0

    def test_zero_mean(self):
        assert burstiness_index(np.zeros(10)) == 0.0

    def test_peak_to_mean(self):
        assert peak_to_mean_ratio(np.asarray([1.0, 1.0, 4.0])) == pytest.approx(2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            burstiness_index(np.asarray([]))
        with pytest.raises(ValueError):
            peak_to_mean_ratio(np.asarray([]))
