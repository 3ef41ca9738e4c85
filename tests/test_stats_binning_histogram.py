"""Unit tests for time binning, histograms and CDFs."""

import numpy as np
import pytest

from repro.stats.binning import bin_events
from repro.stats.histogram import EmpiricalCDF, Histogram, histogram


class TestBinEvents:
    def test_counts_land_in_correct_bins(self):
        series = bin_events(np.asarray([0.05, 0.15, 0.16, 0.95]), 0.1, end_time=1.0)
        assert len(series) == 10
        assert series.counts[0] == 1
        assert series.counts[1] == 2
        assert series.counts[9] == 1

    def test_weights_summed(self):
        series = bin_events(
            np.asarray([0.05, 0.06]), 0.1, weights=np.asarray([10.0, 20.0]),
            end_time=0.2,
        )
        assert series.weights[0] == 30.0
        assert series.counts[0] == 2

    def test_rates_and_bandwidth(self):
        series = bin_events(
            np.asarray([0.0, 0.5]), 1.0, weights=np.asarray([100.0, 100.0]),
            end_time=1.0,
        )
        assert series.rates[0] == 2.0
        assert series.weights[0] == pytest.approx(200.0)

    def test_trailing_silence_produces_empty_bins(self):
        series = bin_events(np.asarray([0.05]), 0.1, end_time=1.0)
        assert len(series) == 10
        assert series.counts[1:].sum() == 0

    def test_events_outside_range_ignored(self):
        series = bin_events(
            np.asarray([-0.5, 0.05, 5.0]), 0.1, start_time=0.0, end_time=0.2
        )
        assert series.counts.sum() == 1

    def test_empty_input(self):
        series = bin_events(np.asarray([]), 0.1, end_time=1.0)
        assert len(series) == 10
        assert series.counts.sum() == 0

    def test_invalid_bin_size(self):
        with pytest.raises(ValueError):
            bin_events(np.asarray([0.0]), 0.0)

    def test_weights_length_mismatch(self):
        with pytest.raises(ValueError):
            bin_events(np.asarray([0.0, 1.0]), 0.1, weights=np.asarray([1.0]))


class TestHistogram:
    def test_probabilities_sum_to_in_range_fraction(self):
        samples = np.asarray([10.0, 20.0, 30.0, 600.0])
        hist = histogram(samples, 10.0, low=0.0, high=500.0)
        assert hist.probabilities.sum() == pytest.approx(0.75)
        assert hist.total_samples == 4

    def test_mode_bin(self):
        hist = histogram(np.asarray([15.0, 15.5, 40.0]), 10.0, high=50.0)
        center, probability = hist.mode_bin()
        assert center == pytest.approx(15.0)
        assert probability == pytest.approx(2.0 / 3.0)

    def test_high_inferred_from_samples(self):
        hist = histogram(np.asarray([4.0, 95.0]), 10.0)
        assert hist.bin_edges[-1] >= 95.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            histogram(np.asarray([1.0]), 0.0)
        with pytest.raises(ValueError):
            histogram(np.asarray([1.0]), 1.0, low=5.0, high=5.0)
        with pytest.raises(ValueError):
            Histogram(np.asarray([0.0, 1.0]), np.asarray([1, 2]), 3)


class TestEmpiricalCDF:
    def test_evaluation(self):
        cdf = EmpiricalCDF.from_samples(np.asarray([1.0, 2.0, 3.0, 4.0]))
        assert cdf(0.5) == 0.0
        assert cdf(2.0) == pytest.approx(0.5)
        assert cdf(10.0) == 1.0

    def test_vectorised_evaluation(self):
        cdf = EmpiricalCDF.from_samples(np.asarray([1.0, 2.0]))
        values = cdf(np.asarray([0.0, 1.5, 3.0]))
        assert list(values) == pytest.approx([0.0, 0.5, 1.0])

    def test_quantile_inverts(self):
        samples = np.random.default_rng(1).normal(size=1001)
        cdf = EmpiricalCDF.from_samples(samples)
        assert cdf.quantile(0.5) == pytest.approx(np.median(samples), abs=1e-9)

    def test_quantile_bounds(self):
        cdf = EmpiricalCDF.from_samples(np.asarray([5.0]))
        with pytest.raises(ValueError):
            cdf.quantile(0.0)
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF.from_samples(np.asarray([]))

    def test_median_property(self):
        cdf = EmpiricalCDF.from_samples(np.asarray([1.0, 2.0, 3.0]))
        assert cdf.median == 2.0
