"""Engine/oracle parity: the bit-identity contract.

The engine (:mod:`repro.matchmaking.columnar`) is only allowed to be
fast because it is *provably* the same computation as the plain
per-attempt loop kept in ``matchmaking_reference.py``: every
:class:`MatchmakingResult` field — sessions, occupancy traces,
admission stats, per-server attribution, session RTTs, QoE figures —
must equal the oracle's bit for bit.  This suite pins that contract on
the golden scenario, under hypothesis property sweeps, through the
saturated-window fast path, for custom policies that take the
per-attempt step on every attempt, and downstream across worker counts
and warm/cold shard caches; it also covers the ``engine`` keyword's
validation and the ``drain_departures`` boundary semantics.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from matchmaking_reference import run_reference, simulate_reference

from repro.fleet.cache import ShardCache
from repro.fleet.profiles import hosting_facility
from repro.fleet.scenario import FleetScenario
from repro.matchmaking import (
    POLICIES,
    DemandScenario,
    LatencyAwarePolicy,
    LeastLoadedPolicy,
    MatchmakingSimulator,
    PoolConfig,
    QoeConfig,
    RegionalOutage,
    RttMatrix,
    SelectionPolicy,
    make_scenario,
    simulate_matchmaking,
)

POLICY_NAMES = sorted(POLICIES)


def _scenario(
    seed=3,
    n_servers=3,
    duration=900.0,
    demand_ratio=3.0,
    session_duration_mean=180.0,
    session_duration_min=5.0,
):
    fleet = hosting_facility(n_servers=n_servers, duration=duration, seed=seed)
    config = PoolConfig.for_fleet(
        fleet,
        demand_ratio=demand_ratio,
        epoch_length=60.0,
        session_duration_mean=session_duration_mean,
        session_duration_min=session_duration_min,
    )
    rtt = RttMatrix.for_fleet(fleet, config.region_profile, seed=seed)
    return fleet, config, rtt


def _both_engines(policy, seed=3, **kwargs):
    """``(oracle, engine)`` results of one scenario."""
    fleet, config, rtt = _scenario(seed=seed, **kwargs)
    scalar = simulate_reference(fleet, policy, config, rtt=rtt, seed=seed)
    columnar = simulate_matchmaking(fleet, policy, config, rtt=rtt, seed=seed)
    return scalar, columnar


def _assert_identical(a, b):
    """Bit-identity across every field of two MatchmakingResults."""
    np.testing.assert_array_equal(a.occupancy, b.occupancy)
    np.testing.assert_array_equal(a.per_server_attempts, b.per_server_attempts)
    np.testing.assert_array_equal(
        a.per_server_rejections, b.per_server_rejections
    )
    assert a.admission == b.admission
    assert a.sessions == b.sessions
    assert a.capacities == b.capacities
    assert a.repeat_assignments == b.repeat_assignments
    assert a.qoe_repeat_refusals == b.qoe_repeat_refusals
    assert a.scenario_name == b.scenario_name
    assert len(a.session_rtts) == len(b.session_rtts)
    for rtts_a, rtts_b in zip(a.session_rtts, b.session_rtts):
        np.testing.assert_array_equal(rtts_a, rtts_b)
    assert len(a.qoe_multipliers) == len(b.qoe_multipliers)
    for mults_a, mults_b in zip(a.qoe_multipliers, b.qoe_multipliers):
        np.testing.assert_array_equal(mults_a, mults_b)
    assert a.describe() == b.describe()


class TestGoldenParity:
    """All six stock policies on the golden-regression scenario."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_policy_bit_identical(self, policy):
        scalar, columnar = _both_engines(policy)
        _assert_identical(scalar, columnar)

    def test_custom_weights_bit_identical(self):
        scalar, columnar = _both_engines(
            LatencyAwarePolicy(alpha=2.0, beta=0.25)
        )
        _assert_identical(scalar, columnar)

    def test_simulator_run_matches_oracle(self):
        fleet, config, rtt = _scenario()
        sim = MatchmakingSimulator(
            fleet, "least_loaded", config=config, rtt=rtt
        )
        _assert_identical(sim.run(), run_reference(sim))


class TestSaturatedWindows:
    """The departure/attempt window fast path, at flash-crowd demand."""

    @pytest.mark.parametrize(
        "policy",
        ["least_loaded", "sticky", "capacity_aware", "lowest_rtt", "latency_aware"],
    )
    def test_saturated_parity(self, policy):
        # long sessions + 12x demand keep the facility pinned full, the
        # regime the saturated-window batching serves
        scalar, columnar = _both_engines(
            policy,
            demand_ratio=12.0,
            session_duration_mean=600.0,
        )
        assert scalar.admission.rejected > scalar.admission.admitted
        _assert_identical(scalar, columnar)

    @staticmethod
    def _saturated_capacity_aware(coupled):
        """Oracle and engine capacity_aware runs at saturating demand,
        plain or with QoE + ``regional_outage`` (careful-mode epochs)."""
        fleet, config, rtt = _scenario(
            demand_ratio=12.0, session_duration_mean=600.0
        )
        scenario = None
        if coupled:
            config = config.replace(qoe=QoeConfig(enabled=True))
            scenario = make_scenario("regional_outage", config.n_epochs)
        return (
            simulate_reference(
                fleet, "capacity_aware", config, rtt=rtt, seed=3, scenario=scenario
            ),
            simulate_matchmaking(
                fleet, "capacity_aware", config, rtt=rtt, seed=3, scenario=scenario
            ),
        )

    def test_capacity_aware_qoe_outage_parity(self):
        # in-window refusals draw their retries from the assign stream
        # and count QoE refusals, through careful-mode outage epochs
        scalar, columnar = self._saturated_capacity_aware(coupled=True)
        assert scalar.admission.retried > 0 and scalar.admission.balked > 0
        assert scalar.qoe_repeat_refusals > 0
        _assert_identical(scalar, columnar)

    @pytest.mark.parametrize(
        "coupled, unbatched_segments",
        # segment counts of the same runs with capacity_aware kept off
        # the saturated-window path (fill and full spans only)
        [(False, 207), (True, 205)],
        ids=["plain", "qoe-outage"],
    )
    def test_capacity_aware_takes_saturated_windows(
        self, coupled, unbatched_segments
    ):
        from repro.obs.metrics import registry, reset_metrics

        reset_metrics()
        _, columnar = self._saturated_capacity_aware(coupled)
        reg = registry()
        segments = reg.counter("matchmaking.columnar.segments").value
        fallback = reg.counter(
            "matchmaking.columnar.scalar_fallback_attempts"
        ).value
        assert fallback == 0
        assert segments < unbatched_segments

    def test_window_path_actually_vectorises(self):
        from repro.obs.metrics import registry, reset_metrics

        reset_metrics()
        _, columnar = _both_engines(
            "least_loaded", demand_ratio=12.0, session_duration_mean=600.0
        )
        reg = registry()
        vectorised = reg.counter(
            "matchmaking.columnar.vectorised_attempts"
        ).value
        fallback = reg.counter(
            "matchmaking.columnar.scalar_fallback_attempts"
        ).value
        assert vectorised + fallback == columnar.admission.attempts
        # under saturation the batched spans must dominate
        assert vectorised > fallback


class TestPropertyParity:
    """Hypothesis sweep: parity is not a property of one scenario."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        demand=st.sampled_from([0.5, 1.5, 4.0]),
        n_servers=st.integers(min_value=1, max_value=5),
        policy=st.sampled_from(POLICY_NAMES),
    )
    def test_sweep_bit_identical(self, seed, demand, n_servers, policy):
        scalar, columnar = _both_engines(
            policy,
            seed=seed,
            n_servers=n_servers,
            duration=600.0,
            demand_ratio=demand,
        )
        _assert_identical(scalar, columnar)


class TestDownstreamParity:
    """A columnar result feeds the sharded fleet stage identically."""

    @pytest.fixture(scope="class")
    def columnar_result(self):
        fleet, config, rtt = _scenario(n_servers=4, duration=600.0)
        return simulate_matchmaking(fleet, "least_loaded", config, rtt=rtt)

    def _series_equal(self, a, b):
        return all(
            np.array_equal(np.asarray(getattr(a, f)), np.asarray(getattr(b, f)))
            for f in ("in_counts", "out_counts", "in_bytes", "out_bytes")
        )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_workers_bit_identical(self, columnar_result, workers):
        serial = FleetScenario.from_matchmaking(
            columnar_result
        ).aggregate_per_second(workers=1)
        sharded = FleetScenario.from_matchmaking(
            columnar_result
        ).aggregate_per_second(workers=workers)
        assert self._series_equal(serial, sharded)

    def test_warm_cache_replays_bit_identically(
        self, columnar_result, tmp_path
    ):
        cache = ShardCache(tmp_path / "shards")
        cold = FleetScenario.from_matchmaking(
            columnar_result, cache=cache
        ).aggregate_per_second(workers=1)
        warm_cache = ShardCache(tmp_path / "shards")
        warm = FleetScenario.from_matchmaking(
            columnar_result, cache=warm_cache
        ).aggregate_per_second(workers=1)
        assert warm_cache.stats.hits == columnar_result.n_servers
        assert warm_cache.stats.stores == 0
        assert self._series_equal(cold, warm)

    def test_scalar_and_columnar_share_cache_entries(
        self, columnar_result, tmp_path
    ):
        # identical sessions -> identical shard keys: a cache warmed by
        # the oracle's result serves the engine's without a single store
        fleet, config, rtt = _scenario(n_servers=4, duration=600.0)
        scalar = simulate_reference(fleet, "least_loaded", config, rtt=rtt)
        cache = ShardCache(tmp_path / "xengine")
        FleetScenario.from_matchmaking(
            scalar, cache=cache
        ).aggregate_per_second(workers=1)
        replay_cache = ShardCache(tmp_path / "xengine")
        FleetScenario.from_matchmaking(
            columnar_result, cache=replay_cache
        ).aggregate_per_second(workers=1)
        assert replay_cache.stats.hits == columnar_result.n_servers
        assert replay_cache.stats.stores == 0


class _Gambler(SelectionPolicy):
    """Custom retrying policy: draws from ``rng``, sometimes refuses
    outright (``None``) and sometimes names the fullest server."""

    name = "gambler"
    retry_on_reject = True

    def select(self, occupancy, capacities, last_server, rng, rtt=None):
        u = rng.uniform()
        if u < 0.2:
            return None
        if u < 0.5:
            return int(np.argmin(capacities - occupancy))
        return int(rng.integers(occupancy.size))


class _Tweaked(LeastLoadedPolicy):
    """A stock subclass overriding ``select``: a coin flip from ``rng``
    picks the previous server (full or not) or least-loaded; being a
    non-retrying policy, its refused players balk without a draw."""

    def select(self, occupancy, capacities, last_server, rng, rtt=None):
        if last_server >= 0 and rng.uniform() < 0.5:
            return int(last_server)
        return super().select(occupancy, capacities, last_server, rng, rtt=rtt)


def _coupled_or_plain(policy, seed, demand, n_servers, coupled):
    """Oracle and engine results, with QoE + ``regional_outage`` on or
    with neither."""
    fleet, config, rtt = _scenario(
        seed=seed, n_servers=n_servers, duration=600.0, demand_ratio=demand
    )
    scenario = None
    if coupled:
        config = config.replace(qoe=QoeConfig(enabled=True))
        scenario = make_scenario("regional_outage", config.n_epochs)
    return (
        simulate_reference(fleet, policy, config, rtt=rtt, scenario=scenario),
        simulate_matchmaking(fleet, policy, config, rtt=rtt, scenario=scenario),
    )


class TestGenericStepParity:
    """Custom policies take the per-attempt step on every attempt: its
    refusal branch (``None`` or a full server, attribution, QoE refusal
    count, retry-or-balk draws) must match the oracle."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        demand=st.sampled_from([0.5, 1.5, 4.0]),
        n_servers=st.integers(min_value=1, max_value=5),
        coupled=st.booleans(),
    )
    def test_retrying_custom_policy_matches_oracle(
        self, seed, demand, n_servers, coupled
    ):
        scalar, columnar = _coupled_or_plain(
            _Gambler(), seed, demand, n_servers, coupled
        )
        _assert_identical(scalar, columnar)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        demand=st.sampled_from([0.5, 1.5, 4.0]),
        n_servers=st.integers(min_value=1, max_value=5),
        coupled=st.booleans(),
    )
    def test_subclass_override_matches_oracle(
        self, seed, demand, n_servers, coupled
    ):
        scalar, columnar = _coupled_or_plain(
            _Tweaked(), seed, demand, n_servers, coupled
        )
        _assert_identical(scalar, columnar)

    @pytest.mark.parametrize("policy", [_Gambler(), _Tweaked()])
    def test_deep_outage_matches_oracle(self, policy):
        # two of three servers hard-down mid-run: occupancy exceeds the
        # effective capacity while sessions drain (negative free slots)
        fleet, config, rtt = _scenario(session_duration_mean=400.0)
        config = config.replace(qoe=QoeConfig(enabled=True))
        scenario = DemandScenario(
            "deep_outage",
            (RegionalOutage(5, 10, servers=(0, 1), capacity_scale=0.0),),
        )
        scalar = simulate_reference(
            fleet, policy, config, rtt=rtt, scenario=scenario
        )
        _assert_identical(
            scalar,
            simulate_matchmaking(
                fleet, policy, config, rtt=rtt, scenario=scenario
            ),
        )
        assert np.any(scalar.occupancy[:2, 5:10] > 0)

    @pytest.mark.parametrize("coupled", [False, True])
    def test_refusal_branch_is_exercised(self, coupled):
        # guard the trivial pass: both refusal kinds, retries and
        # balks all occur, and every attempt takes the per-attempt step
        from repro.obs.metrics import registry, reset_metrics

        reset_metrics()
        scalar, columnar = _coupled_or_plain(_Gambler(), 3, 4.0, 3, coupled)
        _assert_identical(scalar, columnar)
        admission = columnar.admission
        attributed = int(columnar.per_server_rejections.sum())
        assert 0 < attributed < admission.rejected  # full and None both
        assert admission.retried > 0 and admission.balked > 0
        fallback = registry().counter(
            "matchmaking.columnar.scalar_fallback_attempts"
        ).value
        assert fallback == admission.attempts
        if coupled:
            assert columnar.qoe_repeat_refusals > 0


class TestEngineKnob:
    """``simulate_matchmaking`` keeps an ``engine`` keyword that only
    accepts the one engine's name."""

    def test_unknown_engine_rejected(self):
        fleet, config, rtt = _scenario()
        with pytest.raises(ValueError, match="engine"):
            simulate_matchmaking(
                fleet, "least_loaded", config, rtt=rtt, engine="turbo"
            )

    def test_scalar_engine_rejected(self):
        fleet, config, rtt = _scenario()
        with pytest.raises(ValueError, match="engine"):
            simulate_matchmaking(
                fleet, "least_loaded", config, rtt=rtt, engine="scalar"
            )


class TestDrainBoundary:
    """Boundary-time departures under the simplified drain predicate."""

    def test_sessions_ending_at_horizon_stay_in_final_sample(self):
        # clamp every duration to the horizon: sessions admitted late
        # end *exactly* at the final epoch boundary, and the strict
        # epoch-end drain must keep them alive in that epoch's
        # occupancy sample (they end at t1, not before it)
        fleet, config, rtt = _scenario(
            n_servers=2,
            duration=300.0,
            demand_ratio=4.0,
            session_duration_mean=250.0,
            session_duration_min=400.0,  # > horizon: every end clips
        )
        for simulate in (simulate_reference, simulate_matchmaking):
            result = simulate(fleet, "least_loaded", config, rtt=rtt)
            ends = np.array(
                [
                    s.end
                    for server in result.sessions
                    for s in server
                ]
            )
            assert ends.size > 0
            np.testing.assert_array_equal(ends, fleet.horizon)
            # alive at the boundary: the final occupancy column counts
            # every session that ends exactly at the horizon
            assert int(result.occupancy[:, -1].sum()) == ends.size

    def test_engines_agree_on_boundary_heavy_scenario(self):
        scalar, columnar = _both_engines(
            "least_loaded",
            n_servers=2,
            duration=300.0,
            demand_ratio=4.0,
            session_duration_mean=250.0,
            session_duration_min=400.0,
        )
        _assert_identical(scalar, columnar)


class TestSixteenServerParity:
    """Facilities past ``latency_aware``'s 12-open switch, so the
    engine's cached scorer runs its vector branch against the oracle's
    ``select``; and outage epochs on every stock path the flag-cached
    ``free.min() >= 0`` test guards."""

    @staticmethod
    def _runs(policy, coupled, scenario=None, **kwargs):
        fleet, config, rtt = _scenario(n_servers=16, **kwargs)
        if coupled:
            config = config.replace(qoe=QoeConfig(enabled=True))
            if scenario is None:
                scenario = make_scenario("regional_outage", config.n_epochs)
        return (
            simulate_reference(
                fleet, policy, config, rtt=rtt, seed=3, scenario=scenario
            ),
            simulate_matchmaking(
                fleet, policy, config, rtt=rtt, seed=3, scenario=scenario
            ),
        )

    @pytest.mark.parametrize("coupled", [False, True], ids=["plain", "qoe-outage"])
    @pytest.mark.parametrize("policy", ["latency_aware", "capacity_aware"])
    def test_bit_identical(self, policy, coupled, monkeypatch):
        open_counts = []
        pick = LatencyAwarePolicy.pick

        def counting_pick(self, free, share_scale, terms):
            open_counts.append(int(np.count_nonzero(free > 0)))
            return pick(self, free, share_scale, terms)

        monkeypatch.setattr(LatencyAwarePolicy, "pick", counting_pick)
        scalar, columnar = self._runs(
            policy, coupled, demand_ratio=3.0, session_duration_mean=300.0
        )
        _assert_identical(scalar, columnar)
        assert scalar.admission.rejected > 0
        if policy == "latency_aware":
            # both scoring branches ran, in the engine and in the oracle
            assert max(open_counts) > 12 and min(open_counts) <= 12

    @pytest.mark.parametrize(
        "policy",
        # alpha 3 weights the free-slot share enough that scoring it on
        # the configured rather than the effective largest capacity
        # would move placements here
        ["latency_aware", LatencyAwarePolicy(alpha=3.0, beta=1.0), "capacity_aware"],
        ids=["latency_aware", "latency_aware-alpha3", "capacity_aware"],
    )
    def test_deep_outage_bit_identical(self, policy):
        # half the slots of eight servers, the four largest among them,
        # gone for epochs 5-9 at saturating demand: the largest effective
        # capacity drops, occupancy drains from above it, and within an
        # outage epoch free.min() turns non-negative
        down = (0, 2, 3, 5, 6, 9, 12, 15)
        scenario = DemandScenario(
            "deep_outage",
            (RegionalOutage(5, 10, servers=down, capacity_scale=0.5),),
        )
        scalar, columnar = self._runs(
            policy,
            True,
            scenario=scenario,
            demand_ratio=3.0,
            session_duration_mean=180.0,
        )
        _assert_identical(scalar, columnar)
        capacities = np.asarray(scalar.capacities)
        assert capacities[list(down)].max() == capacities.max()
        assert np.any(
            scalar.occupancy[list(down), 5:10]
            > capacities[list(down), None] // 2
        )

    def test_regional_demand_gathers_per_player(self):
        # an outage that also moves its region's demand: the regions'
        # attempt probabilities differ, so the arrival draw is compared
        # against a per-player gather, not one scalar
        scenario = DemandScenario(
            "outage_with_demand",
            (RegionalOutage(3, 8, region="eu", capacity_scale=0.0, demand_scale=2.5),),
        )
        scalar, columnar = self._runs(
            "latency_aware", True, scenario=scenario, demand_ratio=1.5
        )
        _assert_identical(scalar, columnar)
