"""Unit tests for admission control and the population simulator."""

import numpy as np
import pytest

from repro.gameserver.admission import AdmissionError, ClientDirectory, SlotTable
from repro.gameserver.config import (
    ClientLinkClass,
    OutageSpec,
    olygamer_week,
    quick_test_profile,
)
from repro.gameserver.population import PopulationSimulator, simulate_population
from repro.sim.random import RandomStreams


class TestSlotTable:
    def test_admits_up_to_capacity(self):
        table = SlotTable(capacity=2)
        assert table.try_admit(1)
        assert table.try_admit(2)
        assert not table.try_admit(3)
        assert table.accepted_total == 2
        assert table.refused_total == 1

    def test_release_frees_slot(self):
        table = SlotTable(capacity=1)
        table.try_admit(1)
        table.release(1)
        assert table.try_admit(2)

    def test_double_admit_rejected(self):
        table = SlotTable(capacity=2)
        table.try_admit(1)
        with pytest.raises(AdmissionError):
            table.try_admit(1)

    def test_release_unknown_rejected(self):
        with pytest.raises(AdmissionError):
            SlotTable(capacity=1).release(99)

    def test_release_all(self):
        table = SlotTable(capacity=3)
        for i in range(3):
            table.try_admit(i)
        evicted = table.release_all()
        assert evicted == {0, 1, 2}
        assert table.occupancy == 0

    def test_occupancy_properties(self):
        table = SlotTable(capacity=3)
        table.try_admit(1)
        assert table.occupancy == 1
        assert table.free_slots == 2
        assert not table.is_full

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SlotTable(capacity=0)


class TestClientDirectory:
    def test_unique_counting(self):
        directory = ClientDirectory()
        a = directory.new_client()
        b = directory.new_client()
        directory.record_attempt(a)
        directory.record_attempt(a)
        directory.record_attempt(b)
        directory.record_establishment(a)
        assert directory.unique_attempting == 2
        assert directory.unique_establishing == 1

    def test_mean_sessions_per_client(self):
        directory = ClientDirectory()
        a = directory.new_client()
        directory.record_establishment(a)
        directory.record_establishment(a)
        b = directory.new_client()
        directory.record_establishment(b)
        assert directory.mean_sessions_per_client() == pytest.approx(1.5)

    def test_sample_returning_respects_exclusion(self, rng):
        directory = ClientDirectory()
        a = directory.new_client()
        b = directory.new_client()
        directory.record_attempt(a)
        directory.record_attempt(b)
        for _ in range(20):
            assert directory.sample_returning(rng, exclude={a}) == b

    def test_sample_returning_empty(self, rng):
        assert ClientDirectory().sample_returning(rng) is None

    def test_sample_returning_all_excluded(self, rng):
        directory = ClientDirectory()
        a = directory.new_client()
        directory.record_attempt(a)
        assert directory.sample_returning(rng, exclude={a}) is None


class TestPopulationSimulation:
    def test_reproducible(self, quick_profile):
        a = simulate_population(quick_profile, seed=3)
        b = simulate_population(quick_profile, seed=3)
        assert a.established_count == b.established_count
        assert [s.start for s in a.sessions] == [s.start for s in b.sessions]

    def test_different_seeds_differ(self, quick_profile):
        a = simulate_population(quick_profile, seed=3)
        b = simulate_population(quick_profile, seed=4)
        assert [s.start for s in a.sessions] != [s.start for s in b.sessions]

    def test_occupancy_never_exceeds_capacity(self, quick_population, quick_profile):
        times = np.linspace(0, quick_profile.duration, 2000)
        players = quick_population.players_at(times)
        assert players.max() <= quick_profile.max_players

    def test_sessions_within_horizon(self, quick_population, quick_profile):
        for session in quick_population.sessions:
            assert 0.0 <= session.start <= session.end <= quick_profile.duration

    def test_attempt_accounting(self, quick_population):
        accepted = sum(1 for a in quick_population.attempts if a.accepted)
        assert accepted == quick_population.established_count
        assert (
            quick_population.refused_count
            == quick_population.attempted_count - accepted
        )

    def test_unique_establishing_at_most_attempting(self, quick_population):
        assert (
            quick_population.unique_establishing
            <= quick_population.unique_attempting
        )

    def test_distinct_per_interval_at_least_instantaneous(self, quick_population):
        per_minute = quick_population.distinct_players_per_interval(60.0)
        times = np.arange(0, quick_population.profile.duration, 60.0) + 30.0
        instantaneous = quick_population.players_at(times)
        n = min(per_minute.size, instantaneous.size)
        assert np.all(per_minute[:n] >= instantaneous[:n])

    def test_map_changes_every_map_duration(self, quick_population, quick_profile):
        expected = int(quick_profile.duration // quick_profile.map_duration)
        # boundary exactly at the horizon is excluded
        assert abs(len(quick_population.map_change_times) - expected) <= 1

    def test_gap_intervals_sorted(self, quick_population):
        gaps = quick_population.gap_intervals()
        assert gaps == sorted(gaps)

    def test_active_sessions_window(self, quick_population):
        sessions = quick_population.active_sessions(100.0, 200.0)
        for session in sessions:
            assert session.start < 200.0
            assert session.end > 100.0

    def test_rate_multipliers_positive_and_bounded(self, quick_population):
        for session in quick_population.sessions:
            assert 0.5 <= session.rate_multiplier <= 3.5

    def test_link_classes_from_profile(self, quick_population, quick_profile):
        names = {c.name for c in quick_profile.link_classes}
        assert {s.link_class for s in quick_population.sessions} <= names


class TestOutages:
    def test_outage_disconnects_everyone(self):
        profile = quick_test_profile(duration=1200.0).replace(
            attempt_rate=0.1,
            outages=(OutageSpec(start=600.0, duration=8.0,
                                reconnect_fraction=0.5),),
        )
        population = simulate_population(profile, seed=7)
        just_before = population.players_at(np.asarray([599.0]))[0]
        just_after = population.players_at(np.asarray([602.0]))[0]
        assert just_before > 0
        assert just_after == 0

    def test_population_recovers_after_outage(self):
        profile = quick_test_profile(duration=1200.0).replace(
            attempt_rate=0.2,
            session_duration_mean=600.0,
            outages=(OutageSpec(start=400.0, duration=8.0,
                                reconnect_fraction=0.8,
                                reconnect_delay_mean=20.0),),
        )
        population = simulate_population(profile, seed=8)
        later = population.players_at(np.asarray([900.0]))[0]
        assert later > 0

    def test_sessions_truncated_at_outage(self):
        profile = quick_test_profile(duration=1200.0).replace(
            attempt_rate=0.1,
            outages=(OutageSpec(start=600.0, duration=8.0),),
        )
        population = simulate_population(profile, seed=9)
        crossing = [
            s for s in population.sessions if s.start < 600.0 < s.end
        ]
        assert crossing == []


#: Link-class weight vectors beyond the paper's: uniform, a zero weight,
#: a vanishing weight, four classes.
_OTHER_LINK_WEIGHTS = (
    (1.0, 1.0, 1.0),
    (0.5, 0.0, 0.5),
    (1e-9, 1.0, 1.0),
    (0.2, 0.3, 0.1, 0.4),
)


def _with_link_weights(weights):
    return olygamer_week().replace(
        link_classes=tuple(
            ClientLinkClass(f"c{i}", w, 1.0 + i, 0.1, 2.0 + i)
            for i, w in enumerate(weights)
        )
    )


def _reference_rate_traits(rng, classes):
    """The per-client trait draw as ``Generator.choice`` and ``np.clip`` make it."""
    weights = np.asarray([c.weight for c in classes], dtype=float)
    chosen = classes[int(rng.choice(len(classes), p=weights / weights.sum()))]
    multiplier = float(
        np.clip(
            rng.normal(chosen.rate_multiplier_mean, chosen.rate_multiplier_std),
            0.55,
            chosen.rate_multiplier_max,
        )
    )
    return multiplier, chosen.name


class TestEventLoopDrawEquivalence:
    """The event loop's cheaper draws take the same values from the same streams."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_equals_default_uniform(self, seed):
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        for _ in range(200):
            assert a.uniform() == b.random()
            # interleave another draw so a position slip would show
            assert a.exponential(3.0) == b.exponential(3.0)
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize(
        "profile",
        [olygamer_week()] + [_with_link_weights(w) for w in _OTHER_LINK_WEIGHTS],
        ids=["olygamer"] + [str(w) for w in _OTHER_LINK_WEIGHTS],
    )
    def test_link_cdf_search_equals_choice(self, profile):
        cdf = PopulationSimulator(profile)._link_cdf
        weights = np.asarray([c.weight for c in profile.link_classes], dtype=float)
        p = weights / weights.sum()
        for seed in range(100):
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed)
            for _ in range(50):
                expected = int(a.choice(len(p), p=p))
                assert int(cdf.searchsorted(b.random(), side="right")) == expected
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 5, 17])
    @pytest.mark.parametrize(
        "profile",
        [
            olygamer_week(),
            # wide spreads, so both clip bounds are hit often
            olygamer_week().replace(
                link_classes=(
                    ClientLinkClass("wide", 0.6, 1.0, 1.0, 1.5),
                    ClientLinkClass("wider", 0.4, 2.0, 3.0, 3.0),
                )
            ),
        ],
        ids=["olygamer", "wide"],
    )
    def test_client_rate_traits_match_reference(self, seed, profile):
        simulator = PopulationSimulator(profile, seed=seed)
        reference = RandomStreams(seed).get("links")
        for client_id in range(3000):
            expected = _reference_rate_traits(reference, profile.link_classes)
            multiplier, code = simulator._client_rate_traits(client_id)
            assert (multiplier, profile.link_classes[code].name) == expected
        # a returning client draws nothing
        assert simulator._client_rate_traits(0) == simulator._client_traits[0]
        assert (
            simulator.streams.get("links").bit_generator.state
            == reference.bit_generator.state
        )
