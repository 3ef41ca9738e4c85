"""Unit tests for the count-level (fluid) generator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gameserver.fluid import CountLevelGenerator, FluidSeries
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

    def test_to_binned_views(self, quick_fluid):
        _, series = quick_fluid
        for direction in (None, "in", "out"):
            view = series.to_binned(direction)
            assert len(view) == len(series)
        with pytest.raises(ValueError):
            series.to_binned("bad")

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
        high_rate = highres.total_counts.sum() / 60.0
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
            sessions=SessionTable.from_rows(sessions, ("modem",)),
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

    def test_full_population_sums_equal_loop(self, full_profile, full_population):
        generator = CountLevelGenerator(full_profile, population=full_population)
        for got, want in zip(
            generator._per_second_sums(),
            _reference_per_second_sums(full_profile, full_population.sessions),
        ):
            assert np.array_equal(got, want)
