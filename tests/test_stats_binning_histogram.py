"""Unit tests for time binning, histograms and CDFs."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.stats.binning import bin_events
from repro.stats.histogram import EmpiricalCDF, Histogram, _bin_edges, histogram


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


# ----------------------------------------------------------------------
# the value-count CDF against the sorted samples it replaced
# ----------------------------------------------------------------------


class SortedSamplesCDF:
    """The former :class:`EmpiricalCDF`, kept as the reference: every sample, sorted.

    The one difference the distinct values cannot avoid: ``-0.0`` and
    ``0.0`` are one value there, held as ``0.0``, so the reference's
    zeros are made signless too (``+ 0.0``).
    """

    def __init__(self, samples):
        self.sorted_samples = np.sort(np.asarray(samples, dtype=float)) + 0.0

    def histogram(self, bin_width, low=0.0, high=None):
        ordered = self.sorted_samples
        edges = _bin_edges(ordered[-1], bin_width, low, high)
        cumulative = np.concatenate(
            [
                np.searchsorted(ordered, edges[:-1], side="left"),
                np.searchsorted(ordered, edges[-1:], side="right"),
            ]
        )
        return Histogram(
            bin_edges=edges,
            counts=np.diff(cumulative).astype(np.int64),
            total_samples=int(ordered.size),
        )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        ranks = np.searchsorted(self.sorted_samples, x, side="right")
        result = ranks / self.sorted_samples.size
        return float(result) if result.ndim == 0 else result

    def quantile(self, q):
        q = np.asarray(q, dtype=float)
        n = self.sorted_samples.size
        indices = np.minimum(np.ceil(q * n).astype(int) - 1, n - 1)
        result = self.sorted_samples[indices]
        return float(result) if result.ndim == 0 else result

    @property
    def median(self):
        return float(self.quantile(0.5))


def same_bits(actual, expected) -> bool:
    """Equal type, dtype, shape and bytes (so NaN equals NaN, -0.0 is not 0.0)."""
    if isinstance(expected, float):
        return type(actual) is float and repr(actual) == repr(expected)
    return (
        isinstance(actual, np.ndarray)
        and actual.dtype == expected.dtype
        and actual.shape == expected.shape
        and actual.tobytes() == expected.tobytes()
    )


def histogram_outcome(cdf, bin_width, low, high):
    """(edges, counts, total) of ``cdf.histogram``, or the type of its error."""
    try:
        hist = cdf.histogram(bin_width, low=low, high=high)
    except (ValueError, OverflowError) as error:
        return type(error)
    return (hist.bin_edges.tobytes(), hist.counts.dtype, hist.counts.tobytes(),
            hist.total_samples)


def arrays(elements, dtype, min_size=1, max_size=60):
    return st.lists(elements, min_size=min_size, max_size=max_size).map(
        lambda values: np.asarray(values, dtype=dtype)
    )


special_floats = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 40.0, 499.5, 500.0, np.inf, -np.inf, np.nan]
)
cdf_samples = st.one_of(
    # payload sizes as the trace holds them
    arrays(st.integers(0, 2**32 - 1) | st.integers(0, 600), np.uint32),
    # negatives, and integers past 2**53 that round to one float
    arrays(st.integers(-(2**63), 2**63 - 1) | st.integers(-50, 50), np.int64),
    # one distinct value, many times
    st.builds(np.full, st.integers(1, 40), st.integers(-5, 700).map(float)),
    # one sample
    arrays(st.floats(allow_nan=True, allow_infinity=True), float, max_size=1),
    # floats with duplicates, infinities and NaN
    arrays(special_floats | st.floats(-1e3, 1e3), float),
)


class TestValueCountCDF:
    @settings(deadline=None)
    @given(
        samples=cdf_samples,
        probes=st.lists(special_floats | st.floats(-1e4, 1e4), max_size=8),
        qs=st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=8),
        bin_width=st.sampled_from([0.5, 3.0, 10.0, 33.3]),
        low=st.sampled_from([0.0, -10.0, 5.0]),
        high=st.sampled_from([None, 100.0, 500.0]),
        bins=st.integers(1, 60),
    )
    @example(  # sizes past the truncation, one exactly on it
        samples=np.asarray([40, 40, 499, 500, 501, 1400], dtype=np.uint32),
        probes=[500.0],
        qs=[0.5],
        bin_width=10.0,
        low=0.0,
        high=500.0,
        bins=1,
    )
    def test_matches_sorted_samples_reference(
        self, samples, probes, qs, bin_width, low, high, bins
    ):
        cdf = EmpiricalCDF.from_samples(samples)
        ref = SortedSamplesCDF(samples)
        assert cdf.size == samples.size

        points = np.concatenate([np.asarray(samples, dtype=float), probes])
        assert same_bits(cdf(points), ref(points))
        for x in points[:4]:
            assert same_bits(cdf(float(x)), ref(float(x)))

        quantiles = np.asarray([1.0, np.nextafter(0.0, 1.0), 1e-300, 0.5, *qs])
        assert same_bits(cdf.quantile(quantiles), ref.quantile(quantiles))
        for q in quantiles[:3]:
            assert same_bits(cdf.quantile(float(q)), ref.quantile(float(q)))
        assert same_bits(cdf.median, ref.median)

        if high is None:
            # bins as wide as the sample span allows, so the edge count
            # stays small whatever the magnitudes
            span = ref.sorted_samples[-1] - low
            if np.isfinite(span) and span > 0:
                bin_width = span / bins
        assert histogram_outcome(cdf, bin_width, low, high) == histogram_outcome(
            ref, bin_width, low, high
        )
