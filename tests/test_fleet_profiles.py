"""Tests for heterogeneous fleet profile generation."""

import math

import numpy as np
import pytest

from repro.fleet import FleetProfile, hosting_facility
from repro.gameserver.config import quick_test_profile


@pytest.fixture(scope="module")
def fleet() -> FleetProfile:
    return hosting_facility(n_servers=8, duration=1200.0, seed=3)


class TestHeterogeneity:
    def test_slots_drawn_from_choices(self, fleet):
        slots = {p.max_players for p in fleet.server_profiles()}
        assert slots <= set(fleet.slot_choices)
        assert len(slots) > 1  # 8 draws from 4 choices: variety expected

    def test_attempt_rate_scales_with_slots_and_popularity(self, fleet):
        base = fleet.base_profile
        for profile in fleet.server_profiles():
            implied_popularity = (
                profile.attempt_rate
                * base.max_players
                / (base.attempt_rate * profile.max_players)
            )
            assert 0.2 < implied_popularity < 5.0

    def test_timezone_phases_spread_within_bounds(self, fleet):
        half_spread = math.pi * fleet.timezone_spread_hours / 24.0
        phases = [p.diurnal_phase for p in fleet.server_profiles()]
        assert all(-half_spread <= phase <= half_spread for phase in phases)
        assert len(set(phases)) > 1

    def test_map_durations_drawn_from_choices(self, fleet):
        durations = {p.map_duration for p in fleet.server_profiles()}
        assert durations <= set(fleet.map_duration_choices)

    def test_addresses_unique_and_client_blocks_disjoint(self, fleet):
        profiles = fleet.server_profiles()
        addresses = [p.server_address.value for p in profiles]
        assert len(set(addresses)) == len(profiles)
        block = 1 << fleet.client_block_bits
        bases = sorted(p.client_address_base.value for p in profiles)
        assert all(b2 - b1 >= block for b1, b2 in zip(bases, bases[1:]))

    def test_horizon_override_and_outages_dropped(self, fleet):
        for profile in fleet.server_profiles():
            assert profile.duration == 1200.0
            assert profile.outages == ()  # the week's outages start later

    def test_horizon_defaults_to_base_profile(self):
        base = quick_test_profile(900.0)
        fleet = FleetProfile(n_servers=2, base_profile=base, seed=0)
        assert fleet.horizon == 900.0
        assert all(p.duration == 900.0 for p in fleet.server_profiles())


class TestDeterminism:
    def test_same_seed_same_profiles(self, fleet):
        again = hosting_facility(n_servers=8, duration=1200.0, seed=3)
        assert fleet.server_profiles() == again.server_profiles()

    def test_profiles_independent_of_fleet_size(self, fleet):
        # growing the fleet must not disturb existing servers
        bigger = hosting_facility(n_servers=12, duration=1200.0, seed=3)
        assert bigger.server_profiles()[:8] == fleet.server_profiles()

    def test_different_seed_different_fleet(self, fleet):
        other = hosting_facility(n_servers=8, duration=1200.0, seed=4)
        assert other.server_profiles() != fleet.server_profiles()

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n_servers", [1, 16, 256])
    def test_server_slots_match_the_profiles(self, seed, n_servers):
        fleet = hosting_facility(n_servers=n_servers, duration=600.0, seed=seed)
        slots = fleet.server_slots()
        assert slots.dtype == np.int64
        assert slots.tolist() == [p.max_players for p in fleet.server_profiles()]

    def test_describe_lists_every_server(self, fleet):
        text = fleet.describe()
        assert len(text.splitlines()) == fleet.n_servers
        assert "slots" in text


class TestValidation:
    def test_rejects_bad_n_servers(self):
        with pytest.raises(ValueError):
            FleetProfile(n_servers=0)

    def test_rejects_empty_slot_choices(self):
        with pytest.raises(ValueError):
            FleetProfile(n_servers=2, slot_choices=())

    def test_rejects_negative_popularity_cv(self):
        with pytest.raises(ValueError):
            FleetProfile(n_servers=2, popularity_cv=-0.1)

    def test_rejects_map_duration_below_downtime(self):
        with pytest.raises(ValueError):
            FleetProfile(n_servers=2, map_duration_choices=(5.0,))

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            FleetProfile(n_servers=2, duration=0.0)

    def test_rejects_client_blocks_overflowing_ipv4_space(self):
        # 24.0.0.1 leaves ~232 blocks of 2^24; 300 servers cannot fit
        with pytest.raises(ValueError, match="overflow"):
            FleetProfile(n_servers=300, client_block_bits=24)

    def test_rejects_out_of_range_index(self):
        fleet = FleetProfile(n_servers=2)
        with pytest.raises(IndexError):
            fleet.server_profile(2)

    def test_popularity_cv_zero_disables_popularity(self):
        fleet = FleetProfile(
            n_servers=3, popularity_cv=0.0, slot_choices=(22,), duration=600.0
        )
        base = fleet.base_profile
        for profile in fleet.server_profiles():
            assert profile.attempt_rate == pytest.approx(base.attempt_rate)
