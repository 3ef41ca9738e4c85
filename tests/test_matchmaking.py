"""Unit tests for the repro.matchmaking closed loop.

Pool configuration (regions included), the six selection policies, the
RTT geometry, the epoch engine's bookkeeping invariants,
assigned-population traffic synthesis, and the facility-level
occupancy/admission/latency metrics in repro.core.facility.
"""

import numpy as np
import pytest
from matchmaking_reference import select

from repro import obs
from repro.core.facility import (
    AdmissionStats,
    FacilityEnvelope,
    LatencyStats,
    OccupancyStats,
    occupancy_rtt_frontier,
    policy_multiplexing_gain,
)
from repro.fleet.execution import SeriesTask, simulate_series
from repro.fleet.profiles import hosting_facility
from repro.fleet.scenario import FleetScenario
from repro.gameserver.population import PopulationResult, SessionTable
from repro.matchmaking import (
    POLICIES,
    RTT_PROFILES,
    PlayerTraits,
    PoolConfig,
    QoeConfig,
    RegionProfile,
    RttMatrix,
    RttProfile,
    SelectionPolicy,
    make_policy,
    make_rtt_profile,
    make_scenario,
    simulate_matchmaking,
)
from repro.matchmaking.policies import (
    CapacityAwarePolicy,
    LatencyAwarePolicy,
    LeastLoadedPolicy,
    LowestRttPolicy,
    RandomPolicy,
    StickyPolicy,
)
from repro.workloads.scenarios import Scenario

#: Small saturating facility shared by most tests.
N_SERVERS = 3
HORIZON = 900.0
EPOCH = 60.0


@pytest.fixture(scope="module")
def small_fleet():
    return hosting_facility(n_servers=N_SERVERS, duration=HORIZON, seed=3)


@pytest.fixture(scope="module")
def saturating_config(small_fleet):
    # short sessions + high demand ratio: plenty of churn and pressure
    return PoolConfig.for_fleet(
        small_fleet,
        demand_ratio=3.0,
        epoch_length=EPOCH,
        session_duration_mean=180.0,
        session_duration_min=5.0,
    )


@pytest.fixture(scope="module")
def results(small_fleet, saturating_config):
    return {
        name: simulate_matchmaking(small_fleet, name, saturating_config)
        for name in POLICIES
    }


class TestPoolConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PoolConfig(pool_size=0, attempt_rate_per_player=0.1, horizon=60.0)
        with pytest.raises(ValueError):
            PoolConfig(pool_size=10, attempt_rate_per_player=0.0, horizon=60.0)
        with pytest.raises(ValueError):
            PoolConfig(
                pool_size=10,
                attempt_rate_per_player=0.1,
                horizon=60.0,
                epoch_length=120.0,
            )
        with pytest.raises(ValueError):
            PoolConfig(
                pool_size=10,
                attempt_rate_per_player=0.1,
                horizon=60.0,
                retry_probability=1.5,
            )

    def test_for_fleet_matches_horizon_and_phase(self, small_fleet):
        config = PoolConfig.for_fleet(small_fleet)
        assert config.horizon == small_fleet.horizon
        assert config.diurnal_phase == small_fleet.base_profile.diurnal_phase
        assert config.pool_size > sum(
            p.max_players for p in small_fleet.server_profiles()
        )

    def test_for_fleet_rejects_pool_below_capacity(self, small_fleet):
        with pytest.raises(ValueError):
            PoolConfig.for_fleet(small_fleet, pool_size=1)

    def test_diurnal_modulation_moves_the_rate(self):
        config = PoolConfig(
            pool_size=10,
            attempt_rate_per_player=0.1,
            horizon=86400.0,
            diurnal_amplitude=0.5,
        )
        rates = [config.attempt_rate_at(t) for t in np.arange(0, 86400, 3600)]
        assert max(rates) > 1.5 * min(rates)
        flat = config.replace(diurnal_amplitude=0.0)
        assert flat.attempt_rate_at(0.0) == flat.attempt_rate_at(43200.0)


class TestPolicies:
    def test_registry_names(self):
        assert list(POLICIES) == [
            "random", "least_loaded", "sticky", "capacity_aware",
            "lowest_rtt", "latency_aware",
        ]
        for name in POLICIES:
            assert make_policy(name).name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            make_policy("zergrush")

    def test_instance_passthrough(self):
        policy = LeastLoadedPolicy()
        assert make_policy(policy) is policy

    def test_subclass_without_select_refused(self, small_fleet):
        # the engine vectorises the stock class only; a subclass that
        # inherits no select has no per-attempt form, so it is refused
        # before a run starts, and the oracle refuses it too
        class RetryingLeastLoaded(LeastLoadedPolicy):
            retry_on_reject = True

        policy = RetryingLeastLoaded()
        with pytest.raises(TypeError, match="has no select"):
            make_policy(policy)
        with pytest.raises(TypeError, match="has no select"):
            simulate_matchmaking(small_fleet, policy)
        with pytest.raises(TypeError, match="has no select"):
            select(policy, np.array([0, 1]), np.array([2, 2]), -1,
                   np.random.default_rng(0))

    def test_least_loaded_picks_most_free(self):
        occupancy = np.array([3, 1, 2])
        capacities = np.array([4, 4, 4])
        rng = np.random.default_rng(0)
        assert select(LeastLoadedPolicy(), occupancy, capacities, -1, rng) == 1

    def test_sticky_prefers_previous_server_with_room(self):
        occupancy = np.array([3, 1, 2])
        capacities = np.array([4, 4, 4])
        rng = np.random.default_rng(0)
        assert select(StickyPolicy(), occupancy, capacities, 2, rng) == 2
        # previous full: falls back to some server with room
        occupancy = np.array([1, 1, 4])
        chosen = select(StickyPolicy(), occupancy, capacities, 2, rng)
        assert chosen in (0, 1)

    def test_sticky_refuses_when_facility_full(self):
        occupancy = np.array([4, 4])
        capacities = np.array([4, 4])
        rng = np.random.default_rng(0)
        assert select(StickyPolicy(), occupancy, capacities, 0, rng) is None

    def test_capacity_aware_refuses_only_when_full(self):
        capacities = np.array([2, 2])
        rng = np.random.default_rng(0)
        policy = CapacityAwarePolicy()
        assert policy.retry_on_reject
        assert select(policy, np.array([2, 1]), capacities, -1, rng) == 1
        assert select(policy, np.array([2, 2]), capacities, -1, rng) is None

    def test_random_is_blind_to_load(self):
        occupancy = np.array([5, 0])
        capacities = np.array([5, 5])
        rng = np.random.default_rng(1)
        picks = {
            select(RandomPolicy(), occupancy, capacities, -1, rng)
            for _ in range(64)
        }
        assert picks == {0, 1}

    def test_lowest_rtt_picks_argmin_among_open(self):
        capacities = np.array([4, 4, 4])
        rng = np.random.default_rng(0)
        rtt = np.array([80.0, 10.0, 30.0])
        policy = LowestRttPolicy()
        # nearest server open: take it even if busier
        assert select(policy, np.array([0, 3, 0]), capacities, -1, rng, rtt=rtt) == 1
        # nearest full: next-lowest RTT wins
        assert select(policy, np.array([0, 4, 0]), capacities, -1, rng, rtt=rtt) == 2
        # facility full: refuse
        assert select(policy, np.array([4, 4, 4]), capacities, -1, rng, rtt=rtt) is None

    def test_lowest_rtt_breaks_ties_toward_free_slots(self):
        capacities = np.array([4, 4, 4])
        rng = np.random.default_rng(0)
        rtt = np.array([20.0, 20.0, 50.0])
        chosen = select(LowestRttPolicy(),
            np.array([3, 1, 0]), capacities, -1, rng, rtt=rtt
        )
        assert chosen == 1

    def test_latency_aware_trades_slots_against_rtt(self):
        capacities = np.array([10, 10])
        rng = np.random.default_rng(0)
        rtt = np.array([10.0, 100.0])
        # ping-chasing beta: near server wins despite being busier
        near = select(LatencyAwarePolicy(alpha=0.1, beta=1.0),
            np.array([8, 0]), capacities, -1, rng, rtt=rtt
        )
        assert near == 0
        # occupancy-heavy alpha: the empty far server wins
        empty = select(LatencyAwarePolicy(alpha=10.0, beta=1.0),
            np.array([8, 0]), capacities, -1, rng, rtt=rtt
        )
        assert empty == 1

    def test_latency_aware_never_selects_full_server(self):
        capacities = np.array([2, 2])
        rng = np.random.default_rng(0)
        rtt = np.array([1.0, 500.0])
        policy = LatencyAwarePolicy()
        # the near server is full: must pick the distant open one
        assert select(policy, np.array([2, 0]), capacities, -1, rng, rtt=rtt) == 1
        assert select(policy, np.array([2, 2]), capacities, -1, rng, rtt=rtt) is None

    def test_latency_aware_weight_validation(self):
        with pytest.raises(ValueError):
            LatencyAwarePolicy(alpha=-1.0)
        with pytest.raises(ValueError):
            LatencyAwarePolicy(beta=float("nan"))
        with pytest.raises(ValueError):
            LatencyAwarePolicy(alpha=float("inf"))

    def test_rtt_policies_require_the_rtt_view(self):
        occupancy = np.array([0, 0])
        capacities = np.array([4, 4])
        rng = np.random.default_rng(0)
        for policy in (LowestRttPolicy(), LatencyAwarePolicy()):
            with pytest.raises(ValueError):
                select(policy, occupancy, capacities, -1, rng)


class TestRegionsAndRtt:
    def test_region_profile_validation(self):
        with pytest.raises(ValueError):
            RegionProfile(names=(), weights=())
        with pytest.raises(ValueError):
            RegionProfile(names=("a", "a"), weights=(1.0, 1.0))
        with pytest.raises(ValueError):
            RegionProfile(names=("a", "b"), weights=(1.0,))
        with pytest.raises(ValueError):
            RegionProfile(names=("a", "b"), weights=(0.0, 0.0))
        profile = RegionProfile(names=("a", "b"), weights=(3.0, 1.0))
        assert profile.n_regions == 2
        assert profile.probabilities() == pytest.approx([0.75, 0.25])

    def test_non_finite_parameters_rejected_eagerly(self):
        # NaN passes sign comparisons, so finiteness is checked up front
        with pytest.raises(ValueError):
            RegionProfile(names=("a", "b"), weights=(float("nan"), 1.0))
        with pytest.raises(ValueError):
            RttProfile(name="bad", intra_region_ms=float("nan"))
        with pytest.raises(ValueError):
            RttProfile(name="bad", hop_ms=float("inf"))
        with pytest.raises(ValueError):
            RttProfile(name="bad", jitter_cv=(0.1, float("nan"), 0.1))

    def test_region_profile_coerces_lists(self, small_fleet):
        listy = RegionProfile(names=["a", "b"], weights=[1.0, 1.0])
        assert listy.names == ("a", "b")
        assert listy.weights == (1.0, 1.0)
        assert listy == RegionProfile(names=("a", "b"), weights=(1.0, 1.0))
        # and the simulator accepts its own default matrix for it
        config = PoolConfig.for_fleet(
            small_fleet, epoch_length=EPOCH, region_profile=listy
        )
        result = simulate_matchmaking(small_fleet, "least_loaded", config)
        assert result.rtt.region_names == ("a", "b")

    def test_traits_carry_regions(self, saturating_config):
        traits = PlayerTraits.draw(saturating_config, seed=5)
        profile = saturating_config.region_profile
        assert traits.region_index.shape == (saturating_config.pool_size,)
        assert set(np.unique(traits.region_index)) <= set(
            range(profile.n_regions)
        )
        assert traits.region_names[int(traits.region_index[0])] in profile.names

    def test_rtt_matrix_deterministic_and_shaped(self, small_fleet):
        regions = RegionProfile()
        a = RttMatrix.for_fleet(small_fleet, regions, seed=7)
        b = RttMatrix.for_fleet(small_fleet, regions, seed=7)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.server_regions, b.server_regions)
        assert a.matrix.shape == (regions.n_regions, small_fleet.n_servers)
        assert np.all(a.matrix > 0)
        c = RttMatrix.for_fleet(small_fleet, regions, seed=8)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_home_region_is_nearest_before_jitter(self, small_fleet):
        # with zero jitter the home region's row is the strict argmin
        profile = RttProfile(
            name="flatjitter", intra_region_ms=10.0, hop_ms=30.0,
            jitter_cv=(0.0, 0.0, 0.0),
        )
        matrix = RttMatrix.for_fleet(small_fleet, profile=profile, seed=3)
        for server in range(matrix.n_servers):
            assert (
                int(np.argmin(matrix.matrix[:, server]))
                == int(matrix.server_regions[server])
            )

    def test_uniform_profile_is_flat(self, small_fleet):
        matrix = RttMatrix.for_fleet(small_fleet, profile="uniform", seed=0)
        assert matrix.is_uniform
        global_matrix = RttMatrix.for_fleet(small_fleet, profile="global", seed=0)
        assert not global_matrix.is_uniform

    def test_unknown_rtt_profile_rejected(self):
        with pytest.raises(KeyError):
            make_rtt_profile("marianas-trench")
        assert set(RTT_PROFILES) == {"global", "continental", "uniform"}

    def test_rtt_matrix_validation(self):
        with pytest.raises(ValueError):
            RttMatrix(
                region_names=("a", "b"),
                server_regions=np.array([0]),
                matrix=np.ones((3, 1)),
            )
        with pytest.raises(ValueError):
            RttMatrix(
                region_names=("a",),
                server_regions=np.array([0, 0]),
                matrix=np.ones((1, 1)),
            )
        with pytest.raises(ValueError):
            RttMatrix(
                region_names=("a",),
                server_regions=np.array([0]),
                matrix=np.zeros((1, 1)),
            )

    def test_rtt_matrix_coerces_inputs(self):
        # list/int inputs must behave exactly like validated arrays
        matrix = RttMatrix(
            region_names=["a", "b"],
            server_regions=[0, 1, 1],
            matrix=[[10, 20, 30], [40, 50, 60]],
        )
        assert matrix.n_servers == 3
        assert matrix.matrix.dtype == float
        assert matrix.server_regions.dtype == np.int64
        assert matrix.region_names == ("a", "b")
        assert not matrix.is_uniform

    def test_describe_names_every_server(self, small_fleet):
        text = RttMatrix.for_fleet(small_fleet, seed=0).describe()
        for server in range(small_fleet.n_servers):
            assert f"server {server:2d}" in text
        assert "na-west" in text


def _assert_conserved(result):
    """Attempts, sessions and slots are neither created nor lost."""
    stats = result.admission
    assert stats.attempts == stats.admitted + stats.rejected
    assert stats.rejected == stats.balked + stats.retried
    assert stats.admitted == sum(len(s) for s in result.sessions)
    assert int(result.per_server_attempts.sum()) >= stats.admitted
    # every admission is attributed to the server it landed on
    np.testing.assert_array_equal(
        result.per_server_attempts - result.per_server_rejections,
        [len(s) for s in result.sessions],
    )
    # session ids are handed out once each, in admission order
    ids = sorted(r.session_id for s in result.sessions for r in s)
    assert ids == list(range(stats.admitted))
    # scenarios only lower effective capacity: the configured slot
    # count is never exceeded
    assert np.all(
        result.occupancy <= np.asarray(result.capacities)[:, None]
    )


class TestEngineInvariants:
    def test_capacity_never_exceeded(self, results):
        for name, result in results.items():
            capacities = np.asarray(result.capacities)[:, None]
            assert np.all(result.occupancy <= capacities), name
            assert np.all(result.occupancy >= 0), name

    def test_admission_accounting(self, results):
        for result in results.values():
            _assert_conserved(result)

    @pytest.mark.parametrize("qoe", [False, True], ids=["qoe_off", "qoe_on"])
    @pytest.mark.parametrize(
        "scenario_name", [None, "regional_outage", "flash_crowd"]
    )
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_conservation(
        self, small_fleet, saturating_config, policy, scenario_name, qoe
    ):
        config = saturating_config.replace(qoe=QoeConfig(enabled=qoe))
        scenario = (
            None
            if scenario_name is None
            else make_scenario(scenario_name, config.n_epochs)
        )
        result = simulate_matchmaking(
            small_fleet, policy, config, scenario=scenario
        )
        _assert_conserved(result)

    def test_only_capacity_aware_retries(self, results):
        assert results["capacity_aware"].admission.retried > 0
        for name in ("random", "least_loaded", "sticky"):
            assert results[name].admission.retried == 0, name

    def test_sessions_within_horizon_and_consistent(self, results):
        for result in results.values():
            for server, session_list in enumerate(result.sessions):
                for record in session_list:
                    assert 0.0 <= record.start < record.end <= HORIZON
                    assert 0 <= record.client_id < result.config.pool_size

    def test_no_player_connected_twice_at_once(self, results):
        for name, result in results.items():
            events = []
            for session_list in result.sessions:
                for record in session_list:
                    events.append((record.start, 1, record.client_id))
                    events.append((record.end, 0, record.client_id))
            events.sort()
            connected = set()
            for _, kind, client in events:
                if kind == 0:
                    connected.discard(client)
                else:
                    assert client not in connected, name
                    connected.add(client)

    def test_saturating_demand_pins_least_loaded(self, results):
        stats = results["least_loaded"].occupancy_stats()
        assert stats.utilization > 0.8

    def test_sticky_affinity_beats_random(self, results):
        assert (
            results["sticky"].affinity_fraction
            > results["random"].affinity_fraction
        )

    def test_least_loaded_rejects_no_more_than_random(self, results):
        assert (
            results["least_loaded"].rejection_rate
            <= results["random"].rejection_rate
        )

    def test_determinism_and_seed_sensitivity(self, small_fleet, saturating_config):
        a = simulate_matchmaking(small_fleet, "sticky", saturating_config)
        b = simulate_matchmaking(small_fleet, "sticky", saturating_config)
        assert np.array_equal(a.occupancy, b.occupancy)
        assert a.sessions == b.sessions
        c = simulate_matchmaking(
            small_fleet, "sticky", saturating_config, seed=99
        )
        assert not np.array_equal(a.occupancy, c.occupancy)

    def test_horizon_mismatch_rejected(self, small_fleet, saturating_config):
        with pytest.raises(ValueError):
            simulate_matchmaking(
                small_fleet,
                "random",
                saturating_config.replace(horizon=HORIZON / 2, epoch_length=30.0),
            )

    def test_every_policy_records_session_rtts(self, results):
        for name, result in results.items():
            assert result.rtt is not None, name
            assert len(result.session_rtts) == len(result.capacities)
            for server, rtts in enumerate(result.session_rtts):
                assert rtts.shape == (len(result.sessions[server]),), name
                assert np.all(rtts > 0), name
            assert (
                result.all_session_rtts().size == result.admission.admitted
            ), name

    def test_session_rtts_match_matrix_lookup(self, small_fleet, saturating_config):
        result = simulate_matchmaking(small_fleet, "lowest_rtt", saturating_config)
        traits = PlayerTraits.draw(saturating_config, result.seed)
        for server, (session_list, rtts) in enumerate(
            zip(result.sessions, result.session_rtts)
        ):
            for record, rtt_ms in zip(session_list, rtts):
                region = int(traits.region_index[record.client_id])
                assert rtt_ms == result.rtt.matrix[region, server]

    def test_mismatched_rtt_matrix_rejected(self, small_fleet, saturating_config):
        regions = saturating_config.region_profile
        bad_servers = RttMatrix(
            region_names=regions.names,
            server_regions=np.zeros(N_SERVERS + 1, dtype=np.int64),
            matrix=np.ones((regions.n_regions, N_SERVERS + 1)),
        )
        with pytest.raises(ValueError):
            simulate_matchmaking(
                small_fleet, "lowest_rtt", saturating_config, rtt=bad_servers
            )
        bad_regions = RttMatrix(
            region_names=("elsewhere",),
            server_regions=np.zeros(N_SERVERS, dtype=np.int64),
            matrix=np.ones((1, N_SERVERS)),
        )
        with pytest.raises(ValueError):
            simulate_matchmaking(
                small_fleet, "lowest_rtt", saturating_config, rtt=bad_regions
            )

    def test_describe_reports_rtt(self, results):
        for result in results.values():
            assert " ms" in result.describe()

    def test_custom_policy_runs_end_to_end(
        self, small_fleet, saturating_config
    ):
        # an out-of-tree policy (not one of the six stock classes) runs
        # through the engine's per-attempt step on every attempt
        class FirstOpen(SelectionPolicy):
            name = "first_open"

            def select(self, occupancy, capacities, last_server, rng, rtt=None):
                open_servers = np.flatnonzero(occupancy < capacities)
                if open_servers.size == 0:
                    return None
                return int(open_servers[0])

        result = simulate_matchmaking(
            small_fleet, FirstOpen(), saturating_config
        )
        assert result.admission.admitted > 0
        _assert_conserved(result)
        # RTTs are still recorded for the QoE analytics
        assert result.all_session_rtts().size == result.admission.admitted

    def test_session_rtt_warmup_cut(self, results):
        result = results["least_loaded"]
        cutoff = 300.0
        cut = result.all_session_rtts(after=cutoff)
        expected = sum(
            sum(1 for record in session_list if record.start >= cutoff)
            for session_list in result.sessions
        )
        assert cut.size == expected
        assert 0 < cut.size < result.all_session_rtts().size
        assert result.latency_stats(after=cutoff).count == expected
        # past the horizon nothing remains, and the stats degrade cleanly
        assert result.latency_stats(after=HORIZON).count == 0

    def test_latency_aware_reads_current_row_contents(self):
        # select is a pure function of its arguments: mutating the row
        # in place between calls must be reflected immediately (no
        # stale normalisation state inside the policy)
        capacities = np.array([8, 8])
        occupancy = np.array([0, 0])
        rng = np.random.default_rng(0)
        policy = LatencyAwarePolicy(alpha=0.0, beta=1.0)
        row = np.array([10.0, 100.0])
        assert select(policy, occupancy, capacities, -1, rng, rtt=row) == 0
        row[:] = [100.0, 10.0]
        assert select(policy, occupancy, capacities, -1, rng, rtt=row) == 1


class TestAssignedTraffic:
    def test_assigned_population_roundtrip(self, results, small_fleet):
        result = results["least_loaded"]
        profile = small_fleet.server_profile(0)
        population = PopulationResult.from_sessions(profile, result.sessions[0])
        assert population.established_count == len(result.sessions[0])
        assert population.attempted_count == len(result.sessions[0])
        assert population.unique_attempting == population.unique_establishing
        starts = [s.start for s in population.sessions]
        assert starts == sorted(starts)

    def test_assigned_scenario_simulates_nothing(self, results, small_fleet):
        """Assigned sessions open no scenario.population span and bump no
        scenario.* counter: nothing is simulated."""
        result = results["least_loaded"]
        profile = small_fleet.server_profile(0)
        before = obs.registry().snapshot()
        tracer = obs.trace.Tracer()
        obs.trace.install_tracer(tracer)
        try:
            scenario = Scenario(profile, seed=7, sessions=result.sessions[0])
            population = scenario.population
        finally:
            obs.trace.install_tracer(None)
        assert population == PopulationResult.from_sessions(
            profile, result.sessions[0]
        )
        assert tracer.records() == []
        after = obs.registry().snapshot()
        assert {k: v for k, v in after.items() if k.startswith("scenario.")} == {
            k: v for k, v in before.items() if k.startswith("scenario.")
        }

    def test_empty_assignment_means_silent_server(self, small_fleet):
        profile = small_fleet.server_profile(0)
        series = simulate_series(
            SeriesTask(profile=profile, seed=7, sessions=SessionTable.from_tuples([], ()))
        )
        assert len(series) == int(HORIZON)
        # no sessions -> no structural rate; only sub-packet clipped
        # noise remains (a populated server emits ~1e5+ packets here)
        assert series.total_counts.sum() < 1.0

    def test_fleet_scenario_from_matchmaking_sums_servers(self, results):
        result = results["least_loaded"]
        scenario = FleetScenario.from_matchmaking(result)
        aggregate = scenario.aggregate_per_second(workers=1)
        total = sum(
            series.total_counts.sum()
            for series in scenario.iter_server_series()
        )
        assert aggregate.total_counts.sum() == pytest.approx(total)

    def test_assignment_length_validated(self, results, small_fleet):
        with pytest.raises(ValueError):
            FleetScenario(small_fleet, assignments=((),))


class TestFacilityMetrics:
    def test_admission_stats_validation(self):
        with pytest.raises(ValueError):
            AdmissionStats(attempts=5, admitted=3, rejected=1)
        with pytest.raises(ValueError):
            AdmissionStats(attempts=5, admitted=3, rejected=2, balked=2, retried=1)
        stats = AdmissionStats(
            attempts=5, admitted=3, rejected=2, balked=1, retried=1
        )
        assert stats.rejection_rate == pytest.approx(0.4)
        assert AdmissionStats(0, 0, 0).rejection_rate == 0.0

    def test_occupancy_stats_from_matrix(self):
        occupancy = np.array([[2, 2, 1], [0, 1, 1]])
        capacities = np.array([2, 2])
        stats = OccupancyStats.from_occupancy(occupancy, capacities)
        assert stats.mean_occupancy == pytest.approx(7 / 6)
        assert stats.utilization == pytest.approx(7 / 12)
        assert stats.full_fraction == pytest.approx(2 / 6)
        assert stats.facility_full_fraction == 0.0
        assert stats.distribution.sum() == pytest.approx(1.0)
        assert stats.distribution[2] == pytest.approx(2 / 6)
        assert stats.quantile(0.0) == 0
        assert stats.quantile(1.0) == 2

    def test_occupancy_stats_shape_validated(self):
        with pytest.raises(ValueError):
            OccupancyStats.from_occupancy(np.zeros((2, 3)), np.array([4]))

    def test_latency_stats_from_rtts(self):
        stats = LatencyStats.from_rtts(
            np.array([10.0, 20.0, 30.0, 40.0]), percentile=50.0
        )
        assert stats.count == 4
        assert stats.mean_ms == pytest.approx(25.0)
        assert stats.median_ms == pytest.approx(25.0)
        assert stats.p_ms == pytest.approx(25.0)
        assert stats.max_ms == pytest.approx(40.0)

    def test_latency_stats_empty_and_invalid(self):
        empty = LatencyStats.from_rtts(np.empty(0))
        assert empty.count == 0
        assert empty.mean_ms == 0.0
        with pytest.raises(ValueError):
            LatencyStats.from_rtts(np.array([1.0]), percentile=0.0)
        with pytest.raises(ValueError):
            LatencyStats.from_rtts(np.array([-1.0]))
        with pytest.raises(ValueError):
            LatencyStats.from_rtts(np.ones((2, 2)))

    def test_occupancy_rtt_frontier(self):
        points = {
            "fill": (0.96, 52.0),       # highest occupancy
            "qoe": (0.94, 30.0),        # lower RTT, slightly emptier
            "dominated": (0.93, 55.0),  # worse on both axes
        }
        assert occupancy_rtt_frontier(points) == ("fill", "qoe")

    def test_occupancy_rtt_frontier_orders_by_utilization(self):
        points = {"a": (0.5, 10.0), "b": (0.9, 20.0), "c": (0.7, 15.0)}
        assert occupancy_rtt_frontier(points) == ("b", "c", "a")
        # a tie on both axes keeps both (neither strictly dominates)
        tied = {"x": (0.8, 12.0), "y": (0.8, 12.0)}
        assert occupancy_rtt_frontier(tied) == ("x", "y")

    def test_policy_multiplexing_gain(self):
        def envelope(peak, mean):
            return FacilityEnvelope(
                duration=60.0,
                percentile=99.0,
                mean_pps=mean,
                peak_pps=peak,
                mean_bandwidth_bps=1.0,
                peak_bandwidth_bps=1.0,
            )

        smooth = envelope(110.0, 100.0)
        bursty = envelope(200.0, 100.0)
        assert policy_multiplexing_gain(bursty, smooth) == pytest.approx(
            2.0 / 1.1
        )
        assert policy_multiplexing_gain(smooth, smooth) == pytest.approx(1.0)
