"""Unit tests for Hurst estimation: the core of the Fig 5 methodology."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.stats.hurst import (
    _exact_cumulative_sum,
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


def reference_points(series, base_interval, block_sizes=None):
    """The plot's points as a reshape-mean per block size computes them.

    ``(block_size, interval_seconds, normalized_variance.hex())`` per
    point, so equality is bit for bit.
    """
    series = np.asarray(series, dtype=float)
    base_variance = float(series.var())
    if block_sizes is None:
        block_sizes = default_block_sizes(series.size)
    points = []
    for m in block_sizes:
        nblocks = series.size // m
        if nblocks < 2:
            continue
        means = series[: nblocks * m].reshape(nblocks, m).mean(axis=1)
        variance = float(means.var())
        if variance > 0:
            points.append((m, m * base_interval, (variance / base_variance).hex()))
    return points


def plot_points(series, base_interval, block_sizes=None):
    plot = variance_time_plot(series, base_interval, block_sizes=block_sizes)
    return [
        (p.block_size, p.interval_seconds, p.normalized_variance.hex())
        for p in plot.points
    ]


def assert_plot_matches_reference(series, block_sizes=None):
    expected = reference_points(series, 0.01, block_sizes)
    if len(expected) < 2:
        with pytest.raises(ValueError, match="too few usable block sizes"):
            variance_time_plot(series, 0.01, block_sizes=block_sizes)
    else:
        assert plot_points(series, 0.01, block_sizes) == expected


@st.composite
def count_series(draw):
    """Integer series built from runs: zeros, constant stretches, negatives
    and counts up to the 2**53 bound on the sum of magnitudes."""
    n = draw(st.integers(16, 400))
    bound = draw(st.sampled_from([1, 9, 2**20, (2**53 - 1) // n]))
    low = draw(st.sampled_from([0, -bound]))
    values = []
    while len(values) < n:
        value = draw(st.one_of(st.just(0), st.integers(low, bound)))
        values.extend([value] * draw(st.integers(1, 25)))
    series = np.asarray(values[:n], dtype=float)
    assume(series.var() > 0)
    return series


_BLOCK_SIZES = st.one_of(
    st.none(), st.lists(st.integers(1, 60), min_size=1, max_size=8)
)


class TestExactBlockSums:
    """The cumulative-sum block means equal the reshape-mean's, bit for bit."""

    @settings(deadline=None)
    @given(series=count_series(), block_sizes=_BLOCK_SIZES)
    def test_count_series_take_the_exact_path(self, series, block_sizes):
        assert _exact_cumulative_sum(series) is not None
        assert_plot_matches_reference(series, block_sizes)

    @pytest.mark.parametrize(
        "series",
        [
            np.r_[np.arange(200.0), 0.5],
            np.random.default_rng(2).poisson(6, 3000).astype(float) + 1e-3,
            # a strided view: the base variance is reused at m = 1 there too
            np.random.default_rng(3).normal(size=9000)[::3],
        ],
        ids=["one-half", "offset-counts", "strided-normal"],
    )
    def test_non_integer_series_take_the_general_path(self, series):
        assert _exact_cumulative_sum(series) is None
        assert_plot_matches_reference(series)
        assert_plot_matches_reference(series, [1, 2, 3, 7, 50])

    def test_sum_of_magnitudes_at_2_53_takes_the_general_path(self):
        # 2**53 + 1 is not a float, so a cumulative sum through it loses
        # the odd counts the block sums need
        series = np.tile([2.0**52, 1.0, 2.0**52, 3.0, -(2.0**52), 5.0, -(2.0**52), 1.0], 8)
        assert np.abs(series).sum() >= 2.0**53
        assert _exact_cumulative_sum(series) is None
        cumulative = np.cumsum(series)
        ends = cumulative[1::2]
        naive = np.diff(ends, prepend=0.0) / 2
        assert not np.array_equal(naive, series.reshape(-1, 2).mean(axis=1))
        assert_plot_matches_reference(series, [1, 2, 4, 8])

    def test_series_below_the_bound_takes_the_exact_path(self):
        series = np.tile([2.0**49, 1.0, -(2.0**49), 3.0], 4)
        assert np.abs(series).sum() < 2.0**53
        assert np.array_equal(_exact_cumulative_sum(series), np.cumsum(series))
        assert_plot_matches_reference(series, [1, 2, 4])


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
