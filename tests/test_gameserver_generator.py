"""Unit tests for the packet-level traffic generator."""

import numpy as np
import pytest
from helpers import quick_test_profile

from repro.gameserver.generator import PacketLevelGenerator, TICK_SERIALIZATION_WINDOW
from repro.gameserver.population import simulate_population
from repro.trace.packet import Direction


class TestGenerateBasics:
    def test_trace_sorted_and_bounded(self, quick_trace):
        assert np.all(np.diff(quick_trace.timestamps) >= 0)
        assert quick_trace.timestamps[0] >= 0.0
        assert quick_trace.timestamps[-1] < 120.0

    def test_both_directions_present(self, quick_trace):
        assert len(quick_trace.inbound()) > 0
        assert len(quick_trace.outbound()) > 0

    def test_server_address_attached(self, quick_trace, quick_profile):
        assert quick_trace.server_address == quick_profile.server_address

    def test_inbound_targets_server(self, quick_trace, quick_profile):
        inbound = quick_trace.inbound()
        assert np.all(inbound.dst_addrs == quick_profile.server_address.value)
        assert np.all(inbound.dst_ports == quick_profile.server_port)

    def test_outbound_sourced_from_server(self, quick_trace, quick_profile):
        outbound = quick_trace.outbound()
        assert np.all(outbound.src_addrs == quick_profile.server_address.value)

    def test_reproducible(self, quick_profile):
        a = PacketLevelGenerator(quick_profile, seed=5).generate(0.0, 60.0)
        b = PacketLevelGenerator(quick_profile, seed=5).generate(0.0, 60.0)
        assert len(a) == len(b)
        assert np.allclose(a.timestamps, b.timestamps)
        assert np.array_equal(a.payload_sizes, b.payload_sizes)

    def test_invalid_window_rejected(self, quick_profile):
        generator = PacketLevelGenerator(quick_profile, seed=1)
        with pytest.raises(ValueError):
            generator.generate(100.0, 50.0)
        with pytest.raises(ValueError):
            generator.generate(0.0, quick_profile.duration + 100.0)

    def test_window_subsets_consistent(self, quick_profile):
        population = simulate_population(quick_profile, seed=6)
        generator = PacketLevelGenerator(quick_profile, population=population, seed=6)
        full = generator.generate(0.0, 120.0)
        window = full.time_slice(30.0, 60.0)
        assert np.all(window.timestamps >= 30.0)
        assert np.all(window.timestamps < 60.0)


class TestTickStructure:
    def test_outbound_clustered_on_tick_grid(self, quick_trace, quick_profile):
        outbound = quick_trace.outbound()
        tick = quick_profile.tick_interval
        offsets = np.mod(outbound.timestamps, tick)
        in_window = offsets <= TICK_SERIALIZATION_WINDOW + 0.003
        assert in_window.mean() > 0.95

    def test_inbound_not_synchronised(self, quick_trace, quick_profile):
        inbound = quick_trace.inbound()
        tick = quick_profile.tick_interval
        offsets = np.mod(inbound.timestamps, tick)
        # inbound phase should be spread across the tick, not clustered
        in_window = offsets <= TICK_SERIALIZATION_WINDOW
        assert in_window.mean() < 0.5

    def test_payload_sizes_within_configured_bounds(self, quick_trace, quick_profile):
        inbound = quick_trace.inbound()
        game_in = inbound.payload_sizes[
            (inbound.payload_sizes >= quick_profile.inbound_payload_min)
        ]
        assert game_in.max() <= quick_profile.inbound_payload_max

    def test_outbound_rate_tracks_players(self, quick_profile):
        population = simulate_population(quick_profile, seed=6)
        generator = PacketLevelGenerator(quick_profile, population=population, seed=6)
        trace = generator.generate(60.0, 120.0)
        players = population.players_at(np.asarray([90.0]))[0]
        if players > 0:
            out_pps = len(trace.outbound()) / 60.0
            expected = (
                players
                * quick_profile.ticks_per_second
                * quick_profile.snapshot_send_probability
            )
            assert out_pps == pytest.approx(expected, rel=0.5)


class TestGapsAndDownloads:
    def test_map_change_gap_empty(self):
        profile = quick_test_profile(duration=400.0)
        trace = PacketLevelGenerator(profile, seed=2).generate(0.0, 400.0)
        gap_start = profile.map_duration
        gap_end = gap_start + profile.map_change_downtime
        # handshake control packets may still appear; game traffic must not
        gap = trace.time_slice(gap_start + 0.1, gap_end - 0.1)
        assert len(gap) < 5

    def test_downloads_can_be_disabled(self, quick_profile):
        population = simulate_population(quick_profile, seed=6)
        generator = PacketLevelGenerator(quick_profile, population=population, seed=6)
        with_downloads = generator.generate(0.0, 120.0, include_downloads=True)
        without = PacketLevelGenerator(
            quick_profile, population=population, seed=6
        ).generate(0.0, 120.0, include_downloads=False)
        assert len(with_downloads) >= len(without)

    def test_handshake_packets_present(self, quick_profile):
        population = simulate_population(quick_profile, seed=6)
        sessions = [
            s for s in population.sessions if 0.0 < s.start < 100.0
        ]
        if not sessions:
            pytest.skip("no session starts in window for this seed")
        generator = PacketLevelGenerator(quick_profile, population=population, seed=6)
        trace = generator.generate(0.0, 120.0)
        session = sessions[0]
        near_start = trace.time_slice(session.start - 1e-6, session.start + 0.1)
        assert len(near_start.inbound()) >= 1
