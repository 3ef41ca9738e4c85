"""Determinism contracts of the matchmaking closed loop.

The tentpole guarantees: policy runs are bit-identical across worker
counts and across warm/cold shard caches (latency-aware placement
included), a uniform RTT matrix pins ``lowest_rtt`` — and α-only
``latency_aware`` — to ``least_loaded`` assignment-for-assignment,
admission never overfills a server (property-tested), and endogenous
facilitynet ingress follows the assigned populations.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet.cache import ShardCache
from repro.fleet.profiles import hosting_facility
from repro.fleet.scenario import FleetScenario
from repro.gameserver.population import SessionTable
from repro.matchmaking import (
    LatencyAwarePolicy,
    PoolConfig,
    RttMatrix,
    simulate_matchmaking,
)
from repro.facilitynet.pipeline import rack_ingress_traces
from repro.facilitynet.topology import build_topology

HORIZON = 600.0
WINDOW = (60.0, 120.0)


def _series_fields(series):
    return [
        np.asarray(getattr(series, name))
        for name in ("in_counts", "out_counts", "in_bytes", "out_bytes")
    ]


def _series_equal(a, b):
    return all(
        np.array_equal(x, y) for x, y in zip(_series_fields(a), _series_fields(b))
    )


def _trace_equal(a, b):
    return (
        len(a) == len(b)
        and np.array_equal(a.timestamps, b.timestamps)
        and np.array_equal(a.payload_sizes, b.payload_sizes)
        and np.array_equal(a.src_addrs, b.src_addrs)
    )


@pytest.fixture(scope="module")
def fleet():
    return hosting_facility(n_servers=4, duration=HORIZON, seed=21)


@pytest.fixture(scope="module")
def result(fleet):
    config = PoolConfig.for_fleet(
        fleet,
        demand_ratio=2.0,
        epoch_length=30.0,
        session_duration_mean=150.0,
    )
    return simulate_matchmaking(fleet, "least_loaded", config)


class TestWorkerCountIndependence:
    @pytest.mark.parametrize("workers", [4])
    def test_series_bit_identical_across_worker_counts(self, result, workers):
        serial = FleetScenario.from_matchmaking(result).aggregate_per_second(
            workers=1
        )
        sharded = FleetScenario.from_matchmaking(result).aggregate_per_second(
            workers=workers
        )
        assert _series_equal(serial, sharded)

    def test_packet_window_bit_identical_across_worker_counts(self, result):
        serial = FleetScenario.from_matchmaking(result).aggregate_packet_window(
            *WINDOW, workers=1
        )
        sharded = FleetScenario.from_matchmaking(result).aggregate_packet_window(
            *WINDOW, workers=4
        )
        assert _trace_equal(serial, sharded)


class TestCacheWarmth:
    def test_warm_rerun_replays_bit_identically(self, result, tmp_path):
        cache = ShardCache(tmp_path / "shards")
        cold = FleetScenario.from_matchmaking(
            result, cache=cache
        ).aggregate_per_second(workers=1)
        assert cache.stats.stores == result.n_servers
        assert cache.stats.hits == 0

        warm_cache = ShardCache(tmp_path / "shards")
        warm = FleetScenario.from_matchmaking(
            result, cache=warm_cache
        ).aggregate_per_second(workers=1)
        assert warm_cache.stats.hits == result.n_servers
        assert warm_cache.stats.stores == 0
        assert _series_equal(cold, warm)

    def test_warm_sharded_matches_cold_serial(self, result, tmp_path):
        cache = ShardCache(tmp_path / "shards2")
        cold = FleetScenario.from_matchmaking(
            result, cache=cache
        ).aggregate_per_second(workers=1)
        warm = FleetScenario.from_matchmaking(
            result, cache=ShardCache(tmp_path / "shards2")
        ).aggregate_per_second(workers=3)
        assert _series_equal(cold, warm)

    def test_policy_change_selects_fresh_entries(self, fleet, result, tmp_path):
        cache = ShardCache(tmp_path / "shards3")
        FleetScenario.from_matchmaking(result, cache=cache).aggregate_per_second(
            workers=1
        )
        other = simulate_matchmaking(fleet, "random", result.config)
        other_cache = ShardCache(tmp_path / "shards3")
        FleetScenario.from_matchmaking(
            other, cache=other_cache
        ).aggregate_per_second(workers=1)
        # different placement -> different session tuples -> no reuse
        assert other_cache.stats.hits == 0
        assert other_cache.stats.stores == fleet.n_servers


class TestUniformRttParity:
    """A flat RTT geometry collapses latency awareness onto load."""

    @pytest.fixture(scope="class")
    def config(self, fleet):
        return PoolConfig.for_fleet(
            fleet,
            demand_ratio=2.0,
            epoch_length=30.0,
            session_duration_mean=150.0,
        )

    @pytest.fixture(scope="class")
    def uniform(self, fleet, config):
        matrix = RttMatrix.for_fleet(
            fleet, config.region_profile, profile="uniform"
        )
        assert matrix.is_uniform
        return matrix

    def _assert_same_assignments(self, a, b):
        assert a.sessions == b.sessions
        assert np.array_equal(a.occupancy, b.occupancy)
        assert a.admission == b.admission
        assert a.repeat_assignments == b.repeat_assignments

    def test_lowest_rtt_reproduces_least_loaded(self, fleet, config, uniform):
        baseline = simulate_matchmaking(fleet, "least_loaded", config)
        pinned = simulate_matchmaking(fleet, "lowest_rtt", config, rtt=uniform)
        self._assert_same_assignments(baseline, pinned)

    def test_alpha_only_latency_aware_reproduces_least_loaded(
        self, fleet, config
    ):
        # β = 0 ignores the matrix entirely, so even a non-uniform
        # geometry leaves the assignments bit-identical to least_loaded
        baseline = simulate_matchmaking(fleet, "least_loaded", config)
        alpha_only = simulate_matchmaking(
            fleet, LatencyAwarePolicy(alpha=1.0, beta=0.0), config
        )
        self._assert_same_assignments(baseline, alpha_only)

    def test_non_uniform_geometry_moves_assignments(self, fleet, config):
        # the parity is a property of the *uniform* matrix: the stock
        # global geometry must actually change latency-aware placement
        baseline = simulate_matchmaking(fleet, "least_loaded", config)
        aware = simulate_matchmaking(fleet, "lowest_rtt", config)
        assert aware.sessions != baseline.sessions


class TestLatencyAwareExperimentPathDeterminism:
    """The new policies ride the sharded/cached stage bit-identically."""

    @pytest.fixture(scope="class")
    def aware_result(self, fleet):
        config = PoolConfig.for_fleet(
            fleet,
            demand_ratio=2.0,
            epoch_length=30.0,
            session_duration_mean=150.0,
        )
        return simulate_matchmaking(fleet, "latency_aware", config)

    @pytest.mark.parametrize("workers", [4])
    def test_series_bit_identical_across_worker_counts(
        self, aware_result, workers
    ):
        serial = FleetScenario.from_matchmaking(
            aware_result
        ).aggregate_per_second(workers=1)
        sharded = FleetScenario.from_matchmaking(
            aware_result
        ).aggregate_per_second(workers=workers)
        assert _series_equal(serial, sharded)

    def test_warm_rerun_replays_bit_identically(self, aware_result, tmp_path):
        cache = ShardCache(tmp_path / "aware-shards")
        cold = FleetScenario.from_matchmaking(
            aware_result, cache=cache
        ).aggregate_per_second(workers=1)
        assert cache.stats.stores == aware_result.n_servers

        warm_cache = ShardCache(tmp_path / "aware-shards")
        warm = FleetScenario.from_matchmaking(
            aware_result, cache=warm_cache
        ).aggregate_per_second(workers=4)
        assert warm_cache.stats.hits == aware_result.n_servers
        assert warm_cache.stats.stores == 0
        assert _series_equal(cold, warm)

    def test_rtt_geometry_is_seed_deterministic(self, fleet, aware_result):
        config = aware_result.config
        again = simulate_matchmaking(fleet, "latency_aware", config)
        assert np.array_equal(aware_result.rtt.matrix, again.rtt.matrix)
        assert aware_result.sessions == again.sessions
        assert np.array_equal(aware_result.occupancy, again.occupancy)
        shifted = simulate_matchmaking(fleet, "latency_aware", config, seed=99)
        assert not np.array_equal(aware_result.rtt.matrix, shifted.rtt.matrix)


class TestAdmissionProperty:
    @given(
        n_servers=st.integers(min_value=1, max_value=4),
        pool_factor=st.integers(min_value=2, max_value=6),
        demand_ratio=st.floats(min_value=0.5, max_value=6.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=12, deadline=None)
    def test_least_loaded_never_exceeds_capacity(
        self, n_servers, pool_factor, demand_ratio, seed
    ):
        fleet = hosting_facility(n_servers=n_servers, duration=300.0, seed=seed)
        slots = sum(p.max_players for p in fleet.server_profiles())
        config = PoolConfig.for_fleet(
            fleet,
            pool_size=pool_factor * slots,
            demand_ratio=demand_ratio,
            epoch_length=60.0,
            session_duration_mean=120.0,
        )
        result = simulate_matchmaking(fleet, "least_loaded", config)
        assert np.all(
            result.occupancy <= np.asarray(result.capacities)[:, None]
        )
        assert result.admission.attempts == (
            result.admission.admitted + result.admission.rejected
        )


class TestEndogenousIngress:
    def test_rack_load_follows_assignments(self, fleet, result):
        topology = build_topology(
            fleet.n_servers, 2, per_server_pps=1e6, per_server_bps=1e9
        )
        # move every session to the servers of rack 0 (indices 0, 1)
        starved = (
            SessionTable.concat((result.sessions[0], result.sessions[2])),
            SessionTable.concat((result.sessions[1], result.sessions[3])),
            SessionTable.empty(),
            SessionTable.empty(),
        )
        ingress = rack_ingress_traces(
            fleet, topology, *WINDOW, workers=1, assignments=starved
        )
        assert len(ingress) == 2
        assert len(ingress[0]) > 0
        assert len(ingress[1]) == 0

    def test_endogenous_ingress_worker_independent(self, fleet, result):
        topology = build_topology(
            fleet.n_servers, 2, per_server_pps=1e6, per_server_bps=1e9
        )
        serial = rack_ingress_traces(
            fleet, topology, *WINDOW, workers=1, assignments=result.sessions
        )
        sharded = rack_ingress_traces(
            fleet, topology, *WINDOW, workers=4, assignments=result.sessions
        )
        assert all(_trace_equal(a, b) for a, b in zip(serial, sharded))

    def test_assignment_length_validated(self, fleet, result):
        topology = build_topology(
            fleet.n_servers, 2, per_server_pps=1e6, per_server_bps=1e9
        )
        with pytest.raises(ValueError):
            rack_ingress_traces(
                fleet, topology, *WINDOW, assignments=result.sessions[:2]
            )
