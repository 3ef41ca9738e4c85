"""Unit tests for spectral periodicity detection."""

import numpy as np
import pytest

from repro.stats.spectral import detect_tick_frequency, periodogram


def tick_series(n_bins=12_000, period_bins=5, amplitude=20.0, seed=0):
    """A 10 ms count series with a 50 ms comb plus noise."""
    rng = np.random.default_rng(seed)
    series = rng.poisson(4.0, n_bins).astype(float)
    series[::period_bins] += amplitude
    return series


class TestPeriodogram:
    def test_tick_line_detected(self):
        spectrum = periodogram(tick_series(), 0.010)
        frequency = spectrum.peak_frequency(min_frequency=2.0)
        assert frequency == pytest.approx(20.0, abs=0.5)

    def test_line_strength_large_for_comb(self):
        spectrum = periodogram(tick_series(), 0.010)
        assert spectrum.line_strength(20.0) > 50.0

    def test_noise_has_no_strong_line(self):
        noise = np.random.default_rng(1).poisson(4.0, 12_000).astype(float)
        spectrum = periodogram(noise, 0.010)
        assert spectrum.line_strength(20.0) < 30.0

    def test_detect_tick_frequency(self):
        frequency, strength = detect_tick_frequency(tick_series(), 0.010)
        assert frequency == pytest.approx(20.0, abs=0.5)
        assert strength > 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            periodogram(np.ones(4), 0.01)
        with pytest.raises(ValueError):
            periodogram(np.ones((3, 3)), 0.01)
        with pytest.raises(ValueError):
            periodogram(np.ones(100), 0.0)
        spectrum = periodogram(tick_series(), 0.010)
        with pytest.raises(ValueError):
            spectrum.peak_frequency(min_frequency=1e9)
        with pytest.raises(ValueError):
            # a frequency off the FFT grid with a sub-resolution bandwidth
            spectrum.line_strength(20.0001234, bandwidth=1e-9)

    def test_on_real_generator_output(self, quick_profile, quick_population):
        from repro.gameserver.fluid import CountLevelGenerator

        window = CountLevelGenerator(
            quick_profile, population=quick_population, seed=11
        ).high_resolution_window(60.0, 120.0, bin_size=0.010)
        frequency, strength = detect_tick_frequency(
            window.out_counts, 0.010
        )
        assert frequency == pytest.approx(20.0, abs=1.0)
        assert strength > 10.0

