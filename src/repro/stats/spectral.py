"""Spectral periodicity analysis.

An FFT periodogram cross-checks the autocorrelation-based tick detection
of :mod:`repro.stats.autocorr`: the server's 50 ms flood appears as a
sharp line at 20 Hz (and harmonics) in the power spectrum of the 10 ms
count series.  Spectral detection is more robust than autocorrelation
when several periodic components coexist (tick + map rotation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Periodogram:
    """One-sided power spectrum of a uniformly sampled series."""

    frequencies: np.ndarray
    power: np.ndarray
    bin_size: float

    def peak_frequency(
        self,
        min_frequency: Optional[float] = None,
        max_frequency: Optional[float] = None,
        harmonic_tolerance: float = 0.5,
    ) -> float:
        """Frequency (Hz) of the fundamental spectral line in a window.

        A pulse train has harmonics of comparable power at every integer
        multiple of its fundamental, and noise can push one above it —
        so the *lowest* frequency reaching ``harmonic_tolerance`` of the
        window's maximum power is returned, not the argmax.
        """
        mask = np.ones(self.frequencies.shape, dtype=bool)
        if min_frequency is not None:
            mask &= self.frequencies >= min_frequency
        if max_frequency is not None:
            mask &= self.frequencies <= max_frequency
        if not np.any(mask):
            raise ValueError("empty frequency window")
        window_power = np.where(mask, self.power, -np.inf)
        peak = float(window_power.max())
        if peak <= 0:
            return float(self.frequencies[int(np.argmax(window_power))])
        candidates = np.flatnonzero(window_power >= harmonic_tolerance * peak)
        return float(self.frequencies[int(candidates[0])])

    def line_strength(self, frequency: float, bandwidth: float = 0.5) -> float:
        """Power near ``frequency`` relative to the spectrum's median power.

        Values far above 1 indicate a genuine periodic component.
        """
        mask = np.abs(self.frequencies - frequency) <= bandwidth
        if not np.any(mask):
            raise ValueError(f"no spectral bins within {bandwidth} Hz of {frequency}")
        median = float(np.median(self.power[1:]))
        if median <= 0:
            return float("inf")
        return float(self.power[mask].max()) / median


def periodogram(series: np.ndarray, bin_size: float) -> Periodogram:
    """Compute the one-sided periodogram of a count series.

    The series is mean-centred (removing the DC line) and a Hann window
    applied to suppress leakage from the strong low-frequency content of
    game traffic (population wander).
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ValueError("series must be 1-D")
    if series.size < 8:
        raise ValueError(f"series too short for a periodogram: {series.size}")
    if bin_size <= 0:
        raise ValueError(f"bin_size must be positive: {bin_size!r}")
    centred = series - series.mean()
    window = np.hanning(series.size)
    spectrum = np.fft.rfft(centred * window)
    power = np.abs(spectrum) ** 2 / series.size
    frequencies = np.fft.rfftfreq(series.size, d=bin_size)
    return Periodogram(frequencies=frequencies, power=power, bin_size=bin_size)


def detect_tick_frequency(
    series: np.ndarray,
    bin_size: float,
    min_frequency: float = 2.0,
    max_frequency: Optional[float] = None,
) -> Tuple[float, float]:
    """Detect the server tick as (frequency Hz, strength).

    ``min_frequency`` excludes the slow population/map components;
    ``max_frequency`` defaults to Nyquist.
    """
    spectrum = periodogram(series, bin_size)
    nyquist = 0.5 / bin_size
    frequency = spectrum.peak_frequency(
        min_frequency, max_frequency if max_frequency is not None else nyquist
    )
    return frequency, spectrum.line_strength(frequency)
