"""Unit tests for the count-level (fluid) generator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gameserver.config import OutageSpec
from repro.gameserver.fluid import (
    CountLevelGenerator,
    FluidSeries,
    _bin_searchsorted,
    _inbound_bin_means,
)
from repro.gameserver.generator import PacketLevelGenerator
from repro.gameserver.population import PopulationResult, SessionRecord, SessionTable
from repro.net.headers import OverheadModel


@pytest.fixture(scope="module")
def quick_fluid(quick_profile, quick_population):
    generator = CountLevelGenerator(
        quick_profile, population=quick_population, seed=11
    )
    return generator, generator.per_second()


class TestPerSecond:
    def test_length_matches_horizon(self, quick_fluid, quick_profile):
        _, series = quick_fluid
        assert len(series) == int(np.ceil(quick_profile.duration))

    def test_counts_non_negative(self, quick_fluid):
        _, series = quick_fluid
        assert series.in_counts.min() >= 0
        assert series.out_counts.min() >= 0
        assert series.in_bytes.min() >= 0
        assert series.out_bytes.min() >= 0

    def test_rate_structure_matches_population(
        self, quick_fluid, quick_population, quick_profile
    ):
        _, series = quick_fluid
        times = np.arange(len(series)) + 0.5
        players = quick_population.players_at(times)
        busy = players >= 2
        if busy.sum() < 10:
            pytest.skip("too few busy seconds")
        per_player_in = series.in_counts[busy] / players[busy]
        expected = 1.0 / quick_profile.client_update_interval
        assert per_player_in.mean() == pytest.approx(expected, rel=0.25)

    def test_map_gap_zeroes_traffic(self, quick_fluid, quick_population):
        _, series = quick_fluid
        for gap_start, gap_end in quick_population.gap_intervals():
            middle = int((gap_start + gap_end) / 2)
            if gap_end - gap_start >= 2 and middle < len(series):
                assert series.total_counts[middle] < series.total_counts.mean() * 0.3

    def test_agrees_with_packet_level(self, quick_profile, quick_population):
        fluid = CountLevelGenerator(
            quick_profile, population=quick_population, seed=11
        ).per_second()
        packet = PacketLevelGenerator(
            quick_profile, population=quick_population, seed=11
        ).generate(0.0, 120.0)
        fluid_rate = fluid.total_counts[:120].mean()
        packet_rate = len(packet) / 120.0
        assert fluid_rate == pytest.approx(packet_rate, rel=0.15)

    def test_bandwidth_accounting(self, quick_fluid):
        _, series = quick_fluid
        overhead = OverheadModel().per_packet
        total = series.bandwidth_bps(overhead)
        split = (
            series.bandwidth_bps(overhead, "in") + series.bandwidth_bps(overhead, "out")
        )
        assert np.allclose(total, split)

    def test_unknown_direction_rejected(self, quick_fluid):
        _, series = quick_fluid
        with pytest.raises(ValueError):
            series.packet_rates("sideways")
        with pytest.raises(ValueError):
            series.bandwidth_bps(54, "sideways")


class TestRebinAndViews:
    def test_rebin_conserves_totals(self, quick_fluid):
        _, series = quick_fluid
        coarse = series.rebin(60)
        kept = len(coarse) * 60
        assert coarse.total_counts.sum() == pytest.approx(
            series.total_counts[:kept].sum()
        )

    def test_rebin_factor_one(self, quick_fluid):
        _, series = quick_fluid
        assert series.rebin(1) is series

    def test_rebin_invalid(self, quick_fluid):
        _, series = quick_fluid
        with pytest.raises(ValueError):
            series.rebin(0)

    def test_times(self, quick_fluid):
        _, series = quick_fluid
        assert series.times[0] == 0.0
        assert series.times[1] == pytest.approx(series.bin_size)


class TestHighResolutionWindow:
    def test_tick_bins_carry_bursts(self, quick_profile, quick_population):
        generator = CountLevelGenerator(
            quick_profile, population=quick_population, seed=11
        )
        window = generator.high_resolution_window(60.0, 120.0, bin_size=0.010)
        out = window.out_counts
        # bins aligned with ticks (every 5th) should hold nearly all packets
        tick_phase = out.reshape(-1, 5).sum(axis=0)
        assert tick_phase.max() > 0.9 * tick_phase.sum()

    def test_inbound_spread_across_bins(self, quick_profile, quick_population):
        generator = CountLevelGenerator(
            quick_profile, population=quick_population, seed=11
        )
        window = generator.high_resolution_window(60.0, 120.0, bin_size=0.010)
        inbound = window.in_counts.reshape(-1, 5).sum(axis=0)
        assert inbound.max() < 0.5 * inbound.sum()

    def test_repeated_calls_draw_the_same_series(self, quick_profile, quick_population):
        # each call starts its stream afresh, so a second run of an
        # experiment on a cached scenario reproduces the first
        generator = CountLevelGenerator(
            quick_profile, population=quick_population, seed=11
        )
        first = generator.high_resolution_window(60.0, 120.0, bin_size=0.010)
        second = generator.high_resolution_window(60.0, 120.0, bin_size=0.010)
        assert np.array_equal(first.in_counts, second.in_counts)
        assert np.array_equal(first.out_counts, second.out_counts)
        assert np.array_equal(generator.per_second().in_counts, generator.per_second().in_counts)

    def test_invalid_windows_rejected(self, quick_profile, quick_population):
        generator = CountLevelGenerator(
            quick_profile, population=quick_population, seed=11
        )
        with pytest.raises(ValueError):
            generator.high_resolution_window(10.0, 5.0)
        with pytest.raises(ValueError):
            generator.high_resolution_window(0.0, 10.0, bin_size=2.0)

    def test_rate_consistency_with_per_second(self, quick_profile, quick_population):
        generator = CountLevelGenerator(
            quick_profile, population=quick_population, seed=11
        )
        highres = generator.high_resolution_window(60.0, 120.0, bin_size=0.010)
        per_second = generator.per_second()
        high_rate = (highres.in_counts + highres.out_counts).sum() / 60.0
        low_rate = per_second.total_counts[60:120].mean()
        assert high_rate == pytest.approx(low_rate, rel=0.2)


def _reference_per_second_sums(profile, sessions):
    """The difference-array sweep as a loop over sessions."""
    nbins = int(math.ceil(profile.duration))
    mult_diff = np.zeros(nbins + 1)
    prob_diff = np.zeros(nbins + 1)
    p = profile.snapshot_send_probability
    for session in sessions:
        first = min(nbins, max(0, int(session.start)))
        last = min(nbins, max(0, int(math.ceil(session.end))))
        if last <= first:
            continue
        mult_diff[first] += session.rate_multiplier
        mult_diff[last] -= session.rate_multiplier
        send_probability = min(1.0, p * session.rate_multiplier)
        prob_diff[first] += send_probability
        prob_diff[last] -= send_probability
    return np.cumsum(mult_diff[:nbins]), np.cumsum(prob_diff[:nbins])


#: Session bounds straddling a 600 s horizon: negative starts, ends past
#: the horizon, whole and fractional seconds.
_bounds = st.one_of(
    st.floats(min_value=-50.0, max_value=700.0, allow_nan=False),
    st.integers(min_value=-5, max_value=605).map(float),
)
_sessions = st.lists(
    st.tuples(_bounds, _bounds, st.floats(min_value=0.05, max_value=4.0)),
    max_size=60,
)


class TestPerSecondSums:
    @settings(max_examples=150, deadline=None)
    @given(rows=_sessions)
    def test_vectorised_sums_equal_loop(self, quick_profile, rows):
        # a table rejects end < start, so each pair is ordered; sessions
        # that clip to nothing inside the horizon must contribute nothing
        sessions = [
            SessionRecord(i, i, min(a, b), max(a, b), multiplier, "modem", False)
            for i, (a, b, multiplier) in enumerate(rows)
        ]
        population = PopulationResult(
            profile=quick_profile,
            # link class "modem" is code 0
            sessions=SessionTable.from_tuples(
                [(*row[:5], 0, row.wants_download) for row in sessions], ("modem",)
            ),
            attempts=[],
            map_change_times=[],
            outages=(),
            unique_attempting=0,
            unique_establishing=0,
        )
        generator = CountLevelGenerator(quick_profile, population=population)
        mult_sum, prob_sum = generator._per_second_sums()
        ref_mult, ref_prob = _reference_per_second_sums(quick_profile, sessions)
        assert mult_sum.dtype == ref_mult.dtype and prob_sum.dtype == ref_prob.dtype
        assert np.array_equal(mult_sum, ref_mult)
        assert np.array_equal(prob_sum, ref_prob)

    def test_sums_built_once(self, quick_profile, quick_population):
        generator = CountLevelGenerator(quick_profile, population=quick_population)
        assert generator._per_second_sums() is generator._per_second_sums()

    def test_full_population_sums_equal_loop(self, full_profile, full_population):
        generator = CountLevelGenerator(full_profile, population=full_population)
        for got, want in zip(
            generator._per_second_sums(),
            _reference_per_second_sums(full_profile, full_population.sessions),
        ):
            assert np.array_equal(got, want)


def _population_with_gaps(profile, map_change_times, outages):
    return PopulationResult(
        profile=profile,
        sessions=SessionTable.from_tuples([], ("modem",)),
        attempts=[],
        map_change_times=list(map_change_times),
        outages=tuple(outages),
        unique_attempting=0,
        unique_establishing=0,
    )


def _reference_gap_fraction(profile, gaps):
    """Fraction of each second inside a gap, as a loop over gaps and seconds."""
    nbins = int(math.ceil(profile.duration))
    fraction = np.zeros(nbins)
    for gap_start, gap_end in gaps:
        for index in range(max(0, int(gap_start)), min(nbins - 1, int(gap_end)) + 1):
            lo = max(gap_start, index)
            hi = min(gap_end, index + 1)
            if hi > lo:
                fraction[index] += hi - lo
    return np.minimum(fraction, 1.0)


#: Gap starts around a 600 s horizon: before it, inside it (whole and
#: fractional seconds) and past it.
_gap_starts = st.one_of(
    st.floats(min_value=-20.0, max_value=650.0, allow_nan=False),
    st.integers(min_value=-3, max_value=602).map(float),
)


class TestGapFraction:
    @settings(max_examples=150, deadline=None)
    @given(
        map_changes=st.lists(_gap_starts, max_size=12),
        outages=st.lists(
            st.tuples(_gap_starts, st.floats(min_value=0.01, max_value=30.0)),
            max_size=4,
        ),
    )
    def test_slices_equal_loop(self, quick_profile, map_changes, outages):
        # overlapping, nested and same-second gaps add in gap order
        population = _population_with_gaps(
            quick_profile,
            sorted(map_changes),
            [OutageSpec(start, duration=length) for start, length in outages],
        )
        generator = CountLevelGenerator(quick_profile, population=population)
        expected = _reference_gap_fraction(quick_profile, population.gap_intervals())
        assert generator._gap_fraction_per_second().tobytes() == expected.tobytes()

    def test_additions_keep_gap_order(self, quick_profile):
        # three outages inside second 0 whose overlaps sum to 0.62 in gap
        # order and to 0.6199999999999999 in reverse
        outages = [OutageSpec(0.08, 0.26), OutageSpec(0.43, 0.28), OutageSpec(0.84, 0.08)]
        population = _population_with_gaps(quick_profile, [], outages)
        generator = CountLevelGenerator(quick_profile, population=population)
        assert generator._gap_fraction_per_second()[0] == 0.62
        assert _reference_gap_fraction(quick_profile, population.gap_intervals())[0] == 0.62


def _reference_inbound_bin_means(mult_sum, update_interval, gaps, window_start, bin_size, nbins):
    """The inbound Poisson means computed over every bin centre."""
    bin_times = window_start + bin_size * (np.arange(nbins) + 0.5)
    second_index = np.minimum(bin_times.astype(np.int64), mult_sum.size - 1)
    rate = mult_sum[second_index] / update_interval
    closed = np.zeros(nbins, dtype=bool)
    starts = [g[0] for g in gaps] + [np.inf]
    for (start, end), next_start in zip(gaps, starts[1:]):
        closed |= (bin_times >= start) & (bin_times < min(end, next_start))
    return np.where(closed, 0.0, rate) * bin_size


_bin_sizes = st.one_of(
    st.sampled_from([0.01, 0.05, 0.003, 0.1, 0.7, 1.0]),
    st.floats(min_value=1e-3, max_value=1.0),
)


class TestInboundBinMeans:
    @settings(max_examples=150, deadline=None)
    @given(
        window_start=st.one_of(
            st.floats(min_value=0.0, max_value=90.0),
            st.integers(min_value=0, max_value=90).map(float),
        ),
        bin_size=_bin_sizes,
        nbins=st.integers(min_value=1, max_value=4000),
        rates=st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=120),
        gaps=st.lists(
            st.tuples(_gap_starts.map(lambda t: t / 5.0), st.floats(min_value=0.0, max_value=20.0)),
            max_size=6,
        ),
    )
    def test_equal_full_length_reference(self, window_start, bin_size, nbins, rates, gaps):
        mult_sum = np.asarray(rates)
        gaps = sorted((start, start + length) for start, length in gaps)
        got = _inbound_bin_means(mult_sum, 0.04, gaps, window_start, bin_size, nbins)
        want = _reference_inbound_bin_means(mult_sum, 0.04, gaps, window_start, bin_size, nbins)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        window_start=st.floats(min_value=0.0, max_value=1e5),
        bin_size=_bin_sizes,
        nbins=st.integers(min_value=1, max_value=3000),
        picks=st.lists(st.integers(min_value=-2, max_value=3002), max_size=20),
        offsets=st.lists(st.floats(min_value=-2.0, max_value=2.0), max_size=20),
    )
    def test_bin_searchsorted_equals_searchsorted(
        self, window_start, bin_size, nbins, picks, offsets
    ):
        centres = window_start + bin_size * (np.arange(nbins) + 0.5)
        # exact centres, points between them, and both ends
        exact = [float(centres[min(max(i, 0), nbins - 1)]) for i in picks]
        between = [window_start + bin_size * (nbins * 0.5 + o * nbins) for o in offsets]
        values = np.asarray(exact + between + [-np.inf, np.inf, window_start])
        assert np.array_equal(
            _bin_searchsorted(values, window_start, bin_size, nbins),
            np.searchsorted(centres, values, side="left"),
        )
