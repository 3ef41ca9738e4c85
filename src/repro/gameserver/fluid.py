"""Count-level ("fluid") traffic generation for long horizons.

A week of packet-level traffic at the paper's rates is ~500 M packets —
needless for the per-minute figures (1–4, 9, 10).  This generator
produces per-bin packet/byte counts directly from the same structural
model the packet level uses (tick grid, per-session rates, map gaps,
outages), skipping packet materialisation:

* outbound counts follow the tick structure: per second, ``ticks/s ×
  Σ_clients min(1, p·m_c)`` expected snapshots with binomial dispersion;
* inbound counts follow the superposed client update streams with
  sub-Poisson dispersion (periodic sources are smoother than Poisson —
  ``INBOUND_DISPERSION`` captures that);
* bytes are counts × payload-model means with round-intensity modulation
  of outbound sizes and CLT noise.

:meth:`CountLevelGenerator.high_resolution_window` additionally produces
sub-second count series (default 10 ms) for variance-time analysis over
windows too long to materialise packets for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.gameserver.config import ServerProfile
from repro.gameserver.population import PopulationResult, simulate_population
from repro.gameserver.protocol import ProtocolModel
from repro.gameserver.rounds import RoundSchedule
from repro.sim.random import RandomStreams
from repro.stats.binning import BinnedSeries

#: Variance-to-mean ratio of inbound per-bin counts (superposed periodic
#: streams are smoother than Poisson's 1.0).
INBOUND_DISPERSION = 0.45


@dataclass(frozen=True)
class FluidSeries:
    """Per-bin packet and byte counts for both directions.

    All arrays share one length; bin ``i`` covers
    ``[start_time + i*bin_size, start_time + (i+1)*bin_size)``.
    """

    bin_size: float
    start_time: float
    in_counts: np.ndarray
    out_counts: np.ndarray
    in_bytes: np.ndarray
    out_bytes: np.ndarray

    def __len__(self) -> int:
        return int(self.in_counts.size)

    @property
    def times(self) -> np.ndarray:
        """Left edge of each bin."""
        return self.start_time + self.bin_size * np.arange(len(self))

    @property
    def total_counts(self) -> np.ndarray:
        """Packets per bin, both directions."""
        return self.in_counts + self.out_counts

    @property
    def total_bytes(self) -> np.ndarray:
        """Payload bytes per bin, both directions."""
        return self.in_bytes + self.out_bytes

    def packet_rates(self, direction: Optional[str] = None) -> np.ndarray:
        """Packets/second per bin: 'in', 'out' or total (None)."""
        options = {
            None: self.total_counts,
            "in": self.in_counts,
            "out": self.out_counts,
        }
        if direction not in options:
            raise ValueError(f"unknown direction {direction!r}")
        return options[direction] / self.bin_size

    def bandwidth_bps(
        self, overhead_per_packet: int, direction: Optional[str] = None
    ) -> np.ndarray:
        """Wire bits/second per bin under a per-packet overhead."""
        if direction is None:
            wire = self.total_bytes + overhead_per_packet * self.total_counts
        elif direction == "in":
            wire = self.in_bytes + overhead_per_packet * self.in_counts
        elif direction == "out":
            wire = self.out_bytes + overhead_per_packet * self.out_counts
        else:
            raise ValueError(f"unknown direction {direction!r}")
        return 8.0 * wire / self.bin_size

    def to_binned(self, direction: Optional[str] = None) -> BinnedSeries:
        """View one direction (or the total) as a :class:`BinnedSeries`."""
        if direction is None:
            counts, weights = self.total_counts, self.total_bytes
        elif direction == "in":
            counts, weights = self.in_counts, self.in_bytes
        elif direction == "out":
            counts, weights = self.out_counts, self.out_bytes
        else:
            raise ValueError(f"unknown direction {direction!r}")
        return BinnedSeries(
            bin_size=self.bin_size,
            start_time=self.start_time,
            counts=np.asarray(counts, dtype=float),
            weights=np.asarray(weights, dtype=float),
        )

    def rebin(self, factor: int) -> "FluidSeries":
        """Aggregate ``factor`` consecutive bins (trailing remainder dropped)."""
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor!r}")
        if factor == 1:
            return self
        full = (len(self) // factor) * factor
        if full == 0:
            raise ValueError("too few bins to rebin")

        def fold(a: np.ndarray) -> np.ndarray:
            return a[:full].reshape(-1, factor).sum(axis=1)

        return FluidSeries(
            bin_size=self.bin_size * factor,
            start_time=self.start_time,
            in_counts=fold(self.in_counts),
            out_counts=fold(self.out_counts),
            in_bytes=fold(self.in_bytes),
            out_bytes=fold(self.out_bytes),
        )


def fluid_series_equal(a: FluidSeries, b: FluidSeries) -> bool:
    """Exact (bit-identical) equality of two series' count/byte arrays.

    The determinism oracle the fleet/matchmaking experiments use to pin
    "sharded equals serial": every array must match exactly, not within
    a tolerance.
    """
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("in_counts", "out_counts", "in_bytes", "out_bytes")
    )


class CountLevelGenerator:
    """Generates :class:`FluidSeries` from a shared population realisation."""

    def __init__(
        self,
        profile: ServerProfile,
        population: Optional[PopulationResult] = None,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self.population = (
            population
            if population is not None
            else simulate_population(profile, seed=seed)
        )
        self.protocol = ProtocolModel.from_profile(profile)
        self.rounds = RoundSchedule(profile, seed=seed)
        self.streams = RandomStreams(seed)

    # ------------------------------------------------------------------
    # per-second structural rates
    # ------------------------------------------------------------------
    def _per_second_sums(self) -> Tuple[np.ndarray, np.ndarray]:
        """(Σ multipliers, Σ min(1, p·m)) of connected clients per second.

        Built with a difference-array sweep over sessions — O(sessions +
        seconds), no per-second Python loop.  Each session adds ``+m`` at
        its first second and ``-m`` at its end, interleaved in session
        order, so the float additions happen in the same order as a loop
        over the sessions would make them.
        """
        profile = self.profile
        nbins = int(math.ceil(profile.duration))
        sessions = self.population.sessions
        multipliers = sessions.rate_multiplier
        first = np.clip(np.trunc(sessions.start), 0, nbins).astype(np.int64)
        last = np.clip(np.ceil(sessions.end), 0, nbins).astype(np.int64)
        kept = last > first
        index = np.column_stack((first[kept], last[kept])).ravel()
        send_probability = np.minimum(
            1.0, profile.snapshot_send_probability * multipliers[kept]
        )

        def swept(values: np.ndarray) -> np.ndarray:
            diff = np.zeros(nbins + 1)
            np.add.at(diff, index, np.column_stack((values, -values)).ravel())
            return np.cumsum(diff[:nbins])

        return swept(multipliers[kept]), swept(send_probability)

    def _gap_fraction_per_second(self) -> np.ndarray:
        """Fraction of each second blanked by map changes or outages."""
        nbins = int(math.ceil(self.profile.duration))
        fraction = np.zeros(nbins)
        for gap_start, gap_end in self.population.gap_intervals():
            first = max(0, int(gap_start))
            last = min(nbins - 1, int(gap_end))
            for index in range(first, last + 1):
                lo = max(gap_start, index)
                hi = min(gap_end, index + 1)
                if hi > lo:
                    fraction[index] += hi - lo
        return np.minimum(fraction, 1.0)

    # ------------------------------------------------------------------
    def per_second(self) -> FluidSeries:
        """Per-second counts/bytes over the full horizon."""
        profile = self.profile
        rng = self.streams.get("fluid")
        mult_sum, prob_sum = self._per_second_sums()
        open_fraction = 1.0 - self._gap_fraction_per_second()
        seconds = mult_sum.size
        times = np.arange(seconds) + 0.5

        in_rate = mult_sum / profile.client_update_interval * open_fraction
        in_counts = np.maximum(
            0.0,
            in_rate + rng.normal(0.0, np.sqrt(INBOUND_DISPERSION * np.maximum(in_rate, 1e-9))),
        )
        out_rate = prob_sum * profile.ticks_per_second * open_fraction
        out_variance = np.maximum(out_rate * (1.0 - profile.snapshot_send_probability), 1e-9)
        out_counts = np.maximum(0.0, out_rate + rng.normal(0.0, np.sqrt(out_variance)))

        in_mean = self.protocol.client_update.effective_mean
        in_std = self.protocol.client_update.std
        in_bytes = in_counts * in_mean + rng.normal(
            0.0, in_std * np.sqrt(np.maximum(in_counts, 1e-9))
        )
        intensity = self.rounds.intensity(times)
        out_mean = self.protocol.server_snapshot.effective_mean * intensity
        out_std = self.protocol.server_snapshot.std
        out_bytes = out_counts * out_mean + rng.normal(
            0.0, out_std * np.sqrt(np.maximum(out_counts, 1e-9))
        )
        return FluidSeries(
            bin_size=1.0,
            start_time=0.0,
            in_counts=in_counts,
            out_counts=out_counts,
            in_bytes=np.maximum(in_bytes, 0.0),
            out_bytes=np.maximum(out_bytes, 0.0),
        )

    def per_minute(self) -> FluidSeries:
        """Per-minute counts/bytes (the resolution of Figs 1, 2, 4)."""
        return self.per_second().rebin(60)

    # ------------------------------------------------------------------
    def high_resolution_window(
        self,
        window_start: float,
        window_end: float,
        bin_size: float = 0.010,
    ) -> FluidSeries:
        """Sub-second count series without materialising packets.

        Outbound packets land in the bin containing their tick (all of a
        tick's snapshots leave within ~4 ms); inbound counts are Poisson
        per bin around the structural rate.  Suitable for variance-time
        analysis over windows where packet-level generation would be too
        large, at the cost of slightly idealised inbound dispersion.
        """
        profile = self.profile
        if bin_size <= 0 or bin_size > 1.0:
            raise ValueError(f"bin_size must lie in (0, 1] seconds: {bin_size!r}")
        if not 0.0 <= window_start < window_end <= profile.duration + 1e-9:
            raise ValueError("window outside horizon")
        rng = self.streams.get("fluid-highres")
        nbins = int(math.ceil((window_end - window_start) / bin_size))
        mult_sum, prob_sum = self._per_second_sums()
        gaps = self.population.gap_intervals()

        # --- outbound: one binomial draw per tick -----------------------
        tick = profile.tick_interval
        first_tick = math.ceil(window_start / tick) * tick
        tick_times = np.arange(first_tick, window_end, tick)
        if tick_times.size:
            second_index = np.minimum(
                tick_times.astype(np.int64), mult_sum.size - 1
            )
            expected = prob_sum[second_index]
            blanked = ~_times_open(tick_times, gaps)
            expected = np.where(blanked, 0.0, expected)
            integer_part = np.floor(expected)
            fractional = expected - integer_part
            sends = integer_part + (rng.uniform(size=expected.size) < fractional)
            # binomial-ish dispersion around the expectation
            noise_std = np.sqrt(
                np.maximum(expected * (1.0 - profile.snapshot_send_probability), 0.0)
            )
            sends = np.maximum(0.0, sends + np.rint(rng.normal(0.0, 1.0, expected.size) * noise_std))
            out_counts = np.zeros(nbins)
            bin_index = ((tick_times + 0.002) - window_start) / bin_size
            bin_index = np.clip(bin_index.astype(np.int64), 0, nbins - 1)
            np.add.at(out_counts, bin_index, sends)
        else:
            out_counts = np.zeros(nbins)

        # --- inbound: Poisson around the structural per-bin rate --------
        bin_times = window_start + bin_size * (np.arange(nbins) + 0.5)
        second_index = np.minimum(bin_times.astype(np.int64), mult_sum.size - 1)
        in_rate = mult_sum[second_index] / profile.client_update_interval
        in_rate = np.where(_times_open(bin_times, gaps), in_rate, 0.0)
        in_counts = rng.poisson(in_rate * bin_size).astype(float)

        in_bytes = in_counts * self.protocol.client_update.effective_mean
        out_bytes = out_counts * self.protocol.server_snapshot.effective_mean
        return FluidSeries(
            bin_size=bin_size,
            start_time=window_start,
            in_counts=in_counts,
            out_counts=out_counts,
            in_bytes=in_bytes,
            out_bytes=out_bytes,
        )


def _times_open(times: np.ndarray, gaps) -> np.ndarray:
    """True where ``times`` fall outside every gap interval."""
    if not gaps or times.size == 0:
        return np.ones(times.shape, dtype=bool)
    starts = np.asarray([g[0] for g in gaps])
    ends = np.asarray([g[1] for g in gaps])
    index = np.searchsorted(starts, times, side="right") - 1
    open_mask = np.ones(times.shape, dtype=bool)
    valid = index >= 0
    open_mask[valid] = times[valid] >= ends[index[valid]]
    return open_mask
