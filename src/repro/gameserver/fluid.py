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
sub-second packet counts (default 10 ms, no byte columns) for
variance-time analysis over windows too long to materialise packets for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.gameserver.config import ServerProfile
from repro.gameserver.population import PopulationResult, simulate_population
from repro.gameserver.protocol import ProtocolModel
from repro.gameserver.rounds import RoundSchedule
from repro.sim.random import RandomStreams

#: Variance-to-mean ratio of inbound per-bin counts (superposed periodic
#: streams are smoother than Poisson's 1.0).
INBOUND_DISPERSION = 0.45

#: Bins per Poisson call of :meth:`CountLevelGenerator.high_resolution_window`.
_POISSON_BLOCK = 1 << 16


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


@dataclass(frozen=True)
class CountWindow:
    """Per-bin packet counts of both directions, without byte columns.

    What :meth:`CountLevelGenerator.high_resolution_window` returns; bin
    ``i`` covers ``[window_start + i*bin_size, window_start + (i+1)*bin_size)``
    of that call.
    """

    in_counts: np.ndarray
    out_counts: np.ndarray


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
        rounds: Optional[RoundSchedule] = None,
    ) -> None:
        self.profile = profile
        self.population = (
            population
            if population is not None
            else simulate_population(profile, seed=seed)
        )
        self.protocol = ProtocolModel.from_profile(profile)
        self.rounds = rounds if rounds is not None else RoundSchedule(profile, seed=seed)
        self.streams = RandomStreams(seed)
        self._sums: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # per-second structural rates
    # ------------------------------------------------------------------
    def _per_second_sums(self) -> Tuple[np.ndarray, np.ndarray]:
        """(Σ multipliers, Σ min(1, p·m)) of connected clients per second.

        Built once per generator with a difference-array sweep over
        sessions — O(sessions + seconds), no per-second Python loop.
        Each session adds ``+m`` at its first second and ``-m`` at its
        end, interleaved in session order, so the float additions happen
        in the same order as a loop over the sessions would make them.
        """
        if self._sums is None:
            self._sums = self._sweep_sessions()
        return self._sums

    def _sweep_sessions(self) -> Tuple[np.ndarray, np.ndarray]:
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
        """Fraction of each second blanked by map changes or outages.

        One ``np.add.at`` over every (gap, second) overlap, gaps in
        order: a second touched by several gaps takes their overlaps in
        the order a loop over the gaps would add them.
        """
        nbins = int(math.ceil(self.profile.duration))
        fraction = np.zeros(nbins)
        gaps = self.population.gap_intervals()
        starts = np.asarray([g[0] for g in gaps], dtype=float)
        ends = np.asarray([g[1] for g in gaps], dtype=float)
        first = np.maximum(0, starts.astype(np.int64))
        last = np.minimum(nbins - 1, ends.astype(np.int64))
        spans = np.maximum(last - first + 1, 0)
        gap = np.repeat(np.arange(len(gaps)), spans)
        step = np.arange(gap.size) - np.repeat(np.cumsum(spans) - spans, spans)
        seconds = first[gap] + step
        lo = np.maximum(starts[gap], seconds)
        hi = np.minimum(ends[gap], seconds + 1.0)
        # adding +0.0 where a second has no overlap leaves it as it is
        np.add.at(fraction, seconds, np.maximum(hi - lo, 0.0))
        return np.minimum(fraction, 1.0)

    # ------------------------------------------------------------------
    def per_second(self) -> FluidSeries:
        """Per-second counts/bytes over the full horizon (the same on every call).

        Each column is built in place in the array it is returned in, so
        the call holds at most the four columns, one draw's scale and the
        draw itself at once (each operation is the one an expression
        ``count = max(0, rate + normal(0, scale))`` would make, in the
        same order, so the values do not move).
        """
        profile = self.profile
        rng = self.streams.fresh("fluid")
        mult_sum, prob_sum = self._per_second_sums()
        open_fraction = self._gap_fraction_per_second()
        np.subtract(1.0, open_fraction, out=open_fraction)

        in_counts = mult_sum / profile.client_update_interval
        in_counts *= open_fraction
        scale = np.maximum(in_counts, 1e-9)
        scale *= INBOUND_DISPERSION
        _add_noise(rng, in_counts, scale)
        np.maximum(0.0, in_counts, out=in_counts)

        out_counts = prob_sum * profile.ticks_per_second
        out_counts *= open_fraction
        del open_fraction
        scale = out_counts * (1.0 - profile.snapshot_send_probability)
        np.maximum(scale, 1e-9, out=scale)
        _add_noise(rng, out_counts, scale)
        np.maximum(0.0, out_counts, out=out_counts)

        in_bytes = in_counts * self.protocol.client_update.effective_mean
        scale = np.maximum(in_counts, 1e-9)
        _add_noise(rng, in_bytes, scale, self.protocol.client_update.std)
        np.maximum(in_bytes, 0.0, out=in_bytes)

        out_bytes = self.rounds.intensity(np.arange(mult_sum.size) + 0.5)
        out_bytes *= self.protocol.server_snapshot.effective_mean
        out_bytes *= out_counts
        scale = np.maximum(out_counts, 1e-9)
        _add_noise(rng, out_bytes, scale, self.protocol.server_snapshot.std)
        np.maximum(out_bytes, 0.0, out=out_bytes)
        return FluidSeries(
            bin_size=1.0,
            start_time=0.0,
            in_counts=in_counts,
            out_counts=out_counts,
            in_bytes=in_bytes,
            out_bytes=out_bytes,
        )

    # ------------------------------------------------------------------
    def high_resolution_window(
        self,
        window_start: float,
        window_end: float,
        bin_size: float = 0.010,
    ) -> CountWindow:
        """Sub-second packet counts without materialising packets.

        Outbound packets land in the bin containing their tick (all of a
        tick's snapshots leave within ~4 ms); inbound counts are Poisson
        per bin around the structural rate.  Suitable for variance-time
        analysis over windows where packet-level generation would be too
        large, at the cost of slightly idealised inbound dispersion.
        Every call with the same arguments returns the same series.

        Only the two count columns are built, as float64: byte columns
        would be the counts times a constant payload mean, and no
        analysis reads them.  A six-hour window at 10 ms is 2.16M bins,
        17 MB a column, so the per-tick draws are freed before the
        inbound draw, and the inbound counts are drawn a block at a time
        into the array of their Poisson means: two full-length arrays,
        the returned columns, are all the call holds at once.
        """
        profile = self.profile
        if bin_size <= 0 or bin_size > 1.0:
            raise ValueError(f"bin_size must lie in (0, 1] seconds: {bin_size!r}")
        if not 0.0 <= window_start < window_end <= profile.duration + 1e-9:
            raise ValueError("window outside horizon")
        rng = self.streams.fresh("fluid-highres")
        nbins = int(math.ceil((window_end - window_start) / bin_size))
        mult_sum, prob_sum = self._per_second_sums()
        gaps = self.population.gap_intervals()
        out_counts = self._outbound_tick_counts(
            rng, prob_sum, gaps, window_start, window_end, bin_size, nbins
        )

        # --- inbound: Poisson around the structural per-bin rate --------
        in_counts = _inbound_bin_means(
            mult_sum,
            profile.client_update_interval,
            gaps,
            window_start,
            bin_size,
            nbins,
        )
        # each block's draws overwrite its means; the generator draws
        # element by element, so blocks take the draws one call would
        for lo in range(0, nbins, _POISSON_BLOCK):
            block = in_counts[lo : lo + _POISSON_BLOCK]
            block[:] = rng.poisson(block)
        return CountWindow(in_counts=in_counts, out_counts=out_counts)

    def _outbound_tick_counts(
        self,
        rng: np.random.Generator,
        prob_sum: np.ndarray,
        gaps,
        window_start: float,
        window_end: float,
        bin_size: float,
        nbins: int,
    ) -> np.ndarray:
        """Outbound packets per bin: one binomial-ish draw per tick.

        The per-tick arrays live only in this call, so they are gone
        before the caller's inbound draw, and the full-length result is
        made last: ``np.bincount`` adds the ticks' sends into their bins
        in tick order, as ``np.add.at`` into zeros would.
        """
        tick = self.profile.tick_interval
        first_tick = math.ceil(window_start / tick) * tick
        tick_times = np.arange(first_tick, window_end, tick)
        if not tick_times.size:
            return np.zeros(nbins)
        expected = prob_sum[np.minimum(tick_times.astype(np.int64), prob_sum.size - 1)]
        expected[~_times_open(tick_times, gaps)] = 0.0
        integer_part = np.floor(expected)
        sends = integer_part + (rng.uniform(size=expected.size) < expected - integer_part)
        # binomial-ish dispersion around the expectation
        noise_std = np.sqrt(
            np.maximum(expected * (1.0 - self.profile.snapshot_send_probability), 0.0)
        )
        sends = np.maximum(0.0, sends + np.rint(rng.normal(0.0, 1.0, expected.size) * noise_std))
        bin_index = ((tick_times + 0.002) - window_start) / bin_size
        bin_index = np.clip(bin_index.astype(np.int64), 0, nbins - 1)
        return np.bincount(bin_index, weights=sends, minlength=nbins)


def _add_noise(
    rng: np.random.Generator, values: np.ndarray, variance: np.ndarray,
    std_per_unit: float = 1.0,
) -> None:
    """``values += normal(0, std_per_unit * sqrt(variance))``, in place.

    ``variance`` is overwritten with the scale (a product with 1.0 is
    exact).
    """
    np.sqrt(variance, out=variance)
    variance *= std_per_unit
    values += rng.normal(0.0, variance)


def _inbound_bin_means(
    mult_sum: np.ndarray,
    update_interval: float,
    gaps,
    window_start: float,
    bin_size: float,
    nbins: int,
) -> np.ndarray:
    """Poisson mean of each bin's inbound count, 0 in gaps.

    Bin ``i`` is centred on ``window_start + bin_size * (i + 0.5)`` and
    takes ``mult_sum / update_interval * bin_size`` of the second holding
    that centre (the last second past the end); a gap closes the bins
    :func:`_times_open` would close.  The bins of each second and of
    each gap are found by :func:`_bin_searchsorted`, so only the result
    is full length.
    """

    def search(values: np.ndarray) -> np.ndarray:
        return _bin_searchsorted(values, window_start, bin_size, nbins)

    ends = _bin_centres(np.asarray([0, nbins - 1]), window_start, bin_size)
    first_second, last_second = np.minimum(
        ends.astype(np.int64), mult_sum.size - 1
    ).tolist()
    seconds = np.arange(first_second, last_second + 1)
    bins_per_second = np.diff(search(seconds[1:]), prepend=0, append=nbins)
    means = np.repeat(mult_sum[seconds] / update_interval * bin_size, bins_per_second)
    for lo, hi in _closed_runs(gaps, search):
        means[lo:hi] = 0.0
    return means


def _times_open(times: np.ndarray, gaps) -> np.ndarray:
    """False where the last gap starting at or before ``times`` still runs.

    ``gaps`` is a list of ``(start, end)`` sorted by start, as
    :meth:`PopulationResult.gap_intervals` returns it.  ``times`` must
    be ascending (both callers pass an ``arange``): gap ``k`` then
    governs the times in ``[start_k, start_{k+1})`` and closes the
    contiguous run of them in ``[start_k, min(end_k, start_{k+1}))``,
    found by two binary searches per gap and cleared as one slice.  A
    gap nested in an earlier, longer one ends the closure at its own
    end, and of gaps with equal starts the last one counts.
    """
    open_mask = np.ones(times.shape, dtype=bool)
    if times.size == 0:
        return open_mask
    for lo, hi in _closed_runs(
        gaps, lambda values: np.searchsorted(times, values, side="left")
    ):
        open_mask[lo:hi] = False
    return open_mask


def _closed_runs(gaps, search) -> List[Tuple[int, int]]:
    """The ``[lo, hi)`` index runs that :func:`_times_open` closes.

    ``search(values)`` is ``np.searchsorted(times, values, side="left")``
    over the ascending times, or a function that returns the same.
    """
    if not gaps:
        return []
    starts = np.asarray([g[0] for g in gaps])
    ends = np.asarray([g[1] for g in gaps])
    stops = np.minimum(ends, np.append(starts[1:], np.inf))
    return list(zip(search(starts).tolist(), search(stops).tolist()))


def _bin_centres(index: np.ndarray, window_start: float, bin_size: float) -> np.ndarray:
    """Centre times of the integer bin ``index``es of a high-resolution window."""
    return window_start + bin_size * (index + 0.5)


def _bin_searchsorted(
    values: np.ndarray, window_start: float, bin_size: float, nbins: int
) -> np.ndarray:
    """``np.searchsorted(centres, values, side="left")`` without ``centres``.

    ``centres`` is ``_bin_centres(np.arange(nbins), ...)``, ascending.
    The index is estimated from the bin size, then moved one bin at a
    time until the centres on either side of it, computed by the same
    expression, bracket the value.
    """
    values = np.asarray(values, dtype=float)
    estimate = np.ceil((values - window_start) / bin_size - 0.5)
    index = np.clip(estimate, 0, nbins).astype(np.int64)
    while True:
        down = (index > 0) & (_bin_centres(index - 1, window_start, bin_size) >= values)
        up = (index < nbins) & (_bin_centres(index, window_start, bin_size) < values)
        if not (down.any() or up.any()):
            return index
        index += up.astype(np.int64) - down.astype(np.int64)
