"""QoE coupling + scripted scenarios: off is bit-identical, on is parity.

The coupling contract has two halves.  Off (the default), every knob in
:class:`QoeConfig` and every scenario hook must be invisible — a run is
bit-identical to one built before the knobs existed, and the traced
artifacts carry no QoE fields.  On, the engine must stay bit-identical
to the per-attempt oracle (``matchmaking_reference.py``) across every
stock policy, every stock scenario, worker counts and warm/cold shard
caches — the parity suites extended through the coupled path.  Alongside: the
scenario machinery's compile-time validation and drain semantics,
epoch-granular retry timing at the horizon boundary, the
``latency_aware`` degenerate placement, the ``for_fleet``
base-profile-override fix and the fleet-scale ``RttMatrix.describe``
truncation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from matchmaking_reference import attempt_probabilities, simulate_reference

from repro import obs
from repro.fleet.cache import ShardCache
from repro.fleet.profiles import hosting_facility
from repro.fleet.scenario import FleetScenario
from repro.matchmaking import (
    POLICIES,
    SCENARIOS,
    DemandEvent,
    DemandScenario,
    FlashCrowd,
    LatencyAwarePolicy,
    PatchDayStorm,
    PoolConfig,
    QoeConfig,
    RegionalOutage,
    RttMatrix,
    make_scenario,
    simulate_matchmaking,
)
from repro.matchmaking.scenarios import CompiledScenario

POLICY_NAMES = sorted(POLICIES)
SCENARIO_NAMES = sorted(SCENARIOS)
#: ``scalar`` is the per-attempt oracle, ``columnar`` the engine.
SIMULATORS = {"scalar": simulate_reference, "columnar": simulate_matchmaking}


def _scenario(
    seed=3,
    n_servers=3,
    duration=900.0,
    demand_ratio=3.0,
    session_duration_mean=180.0,
    session_duration_min=5.0,
    **overrides,
):
    fleet = hosting_facility(n_servers=n_servers, duration=duration, seed=seed)
    config = PoolConfig.for_fleet(
        fleet,
        demand_ratio=demand_ratio,
        epoch_length=60.0,
        session_duration_mean=session_duration_mean,
        session_duration_min=session_duration_min,
        **overrides,
    )
    rtt = RttMatrix.for_fleet(fleet, config.region_profile, seed=seed)
    return fleet, config, rtt


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


class TestQoeConfig:
    """Validation and the shape of the two coupling functions."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("rtt_good_ms", -1.0),
            ("rtt_good_ms", float("nan")),
            ("rtt_scale_ms", 0.0),
            ("rtt_scale_ms", float("inf")),
            ("duration_floor", 0.0),
            ("duration_floor", 1.5),
            ("balk_escalation", 0.0),
            ("balk_escalation", 1.0001),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            QoeConfig(**{field: value})

    def test_duration_multiplier_shape(self):
        qoe = QoeConfig(rtt_good_ms=60.0, rtt_scale_ms=120.0,
                        duration_floor=0.3)
        assert qoe.duration_multiplier(0.0) == 1.0
        assert qoe.duration_multiplier(60.0) == 1.0
        # strictly decreasing past the good threshold...
        samples = [qoe.duration_multiplier(ms) for ms in (61, 100, 200, 500)]
        assert all(a > b for a, b in zip(samples, samples[1:]))
        # ...toward (but never below) the floor
        assert all(0.3 < m < 1.0 for m in samples)
        assert qoe.duration_multiplier(1e9) == pytest.approx(0.3)

    def test_retry_probability_escalates(self):
        qoe = QoeConfig(balk_escalation=0.5)
        assert qoe.retry_probability(0.8, 0) == 0.8
        assert qoe.retry_probability(0.8, 1) == pytest.approx(0.4)
        assert qoe.retry_probability(0.8, 3) == pytest.approx(0.1)

    def test_default_is_disabled(self):
        assert QoeConfig().enabled is False
        assert PoolConfig.for_fleet(
            hosting_facility(n_servers=2, duration=600.0, seed=0)
        ).qoe.enabled is False


class TestQoeOffBitIdentity:
    """Disabled coupling is invisible, whatever the other knobs say."""

    @pytest.mark.parametrize("engine", ["scalar", "columnar"])
    def test_disabled_knobs_never_consulted(self, engine):
        simulate = SIMULATORS[engine]
        fleet, config, rtt = _scenario()
        baseline = simulate(fleet, "capacity_aware", config, rtt=rtt)
        # extreme parameters, but enabled=False: bit-identical anyway
        loud = config.replace(
            qoe=QoeConfig(
                enabled=False,
                rtt_good_ms=0.0,
                rtt_scale_ms=1.0,
                duration_floor=0.01,
                balk_escalation=0.01,
            )
        )
        _assert_identical(
            baseline,
            simulate(fleet, "capacity_aware", loud, rtt=rtt),
        )

    def test_off_run_has_no_qoe_artifacts(self, tmp_path):
        fleet, config, rtt = _scenario()
        obs.start_trace_session(tmp_path / "trace", seed=3)
        try:
            result = simulate_matchmaking(
                fleet, "least_loaded", config, rtt=rtt
            )
        finally:
            obs.end_trace_session()
        assert result.qoe_multipliers == ()
        assert result.qoe_repeat_refusals == 0
        assert result.scenario_name is None
        rows = obs.read_jsonl(tmp_path / "trace" / "matchmaking_epochs.jsonl")
        assert rows
        for row in rows:
            assert "qoe_mean_multiplier" not in row
            assert "effective_capacity" not in row
        from repro.obs.export import load_manifest

        manifest = load_manifest(tmp_path / "trace")
        # the registry keeps keys registered across resets (values are
        # zeroed per traced run), so earlier coupled runs in the same
        # process may leave matchmaking.qoe.* keys behind — what an
        # off-run must never do is put a nonzero total in them
        for key, value in manifest["metrics"].items():
            if not key.startswith("matchmaking.qoe."):
                continue
            if isinstance(value, dict):  # histogram dump
                assert not value["count"], key
            else:
                assert not value, key


def _coupled(policy, scenario_name, engine, seed=3, **kwargs):
    fleet, config, rtt = _scenario(seed=seed, **kwargs)
    config = config.replace(qoe=QoeConfig(enabled=True))
    scenario = make_scenario(scenario_name, config.n_epochs)
    return SIMULATORS[engine](
        fleet, policy, config, rtt=rtt, scenario=scenario
    )


class TestCoupledParity:
    """QoE + scenario on: engine and oracle bit-identical, every policy."""

    @pytest.mark.parametrize("scenario_name", SCENARIO_NAMES)
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_policy_scenario_bit_identical(self, policy, scenario_name):
        scalar = _coupled(policy, scenario_name, "scalar")
        columnar = _coupled(policy, scenario_name, "columnar")
        _assert_identical(scalar, columnar)
        assert scalar.scenario_name == scenario_name

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_deep_outage_careful_path_parity(self, policy):
        # two of three servers hard-down mid-run: occupancy exceeds the
        # reduced effective capacity while sessions drain, the regime
        # the engine's careful slot accounting serves
        fleet, config, rtt = _scenario(session_duration_mean=400.0)
        config = config.replace(qoe=QoeConfig(enabled=True))
        scenario = DemandScenario(
            "deep_outage",
            (RegionalOutage(5, 10, servers=(0, 1), capacity_scale=0.0),),
        )
        scalar = simulate_reference(
            fleet, policy, config, rtt=rtt, scenario=scenario
        )
        columnar = simulate_matchmaking(
            fleet, policy, config, rtt=rtt, scenario=scenario
        )
        _assert_identical(scalar, columnar)
        # the event really put occupancy above effective capacity
        assert np.any(scalar.occupancy[:2, 5:10] > 0)

    def test_custom_weights_coupled_parity(self):
        policy = LatencyAwarePolicy(alpha=2.0, beta=0.25)
        _assert_identical(
            _coupled(policy, "regional_outage", "scalar"),
            _coupled(policy, "regional_outage", "columnar"),
        )

    def test_qoe_without_scenario_parity(self):
        fleet, config, rtt = _scenario()
        config = config.replace(qoe=QoeConfig(enabled=True))
        _assert_identical(
            simulate_reference(fleet, "capacity_aware", config, rtt=rtt),
            simulate_matchmaking(fleet, "capacity_aware", config, rtt=rtt),
        )

    def test_scenario_without_qoe_parity(self):
        fleet, config, rtt = _scenario()
        scenario = make_scenario("regional_outage", config.n_epochs)
        _assert_identical(
            simulate_reference(
                fleet, "least_loaded", config, rtt=rtt, scenario=scenario
            ),
            simulate_matchmaking(
                fleet, "least_loaded", config, rtt=rtt, scenario=scenario
            ),
        )

    def test_coupling_actually_changes_placement(self):
        fleet, config, rtt = _scenario()
        coupled = config.replace(qoe=QoeConfig(enabled=True))
        off = simulate_matchmaking(fleet, "capacity_aware", config, rtt=rtt)
        on = simulate_matchmaking(fleet, "capacity_aware", coupled, rtt=rtt)
        assert not np.array_equal(off.occupancy, on.occupancy)
        mults = np.concatenate([m for m in on.qoe_multipliers if m.size])
        assert mults.size == on.admission.admitted
        assert float(mults.min()) < 1.0
        assert np.all(mults > 0.0) and np.all(mults <= 1.0)


class TestCoupledDownstreamParity:
    """A coupled result feeds the sharded fleet stage identically."""

    @pytest.fixture(scope="class")
    def coupled_result(self):
        return _coupled(
            "least_loaded", "regional_outage", "columnar",
            n_servers=4, duration=600.0,
        )

    def _series_equal(self, a, b):
        return all(
            np.array_equal(np.asarray(getattr(a, f)), np.asarray(getattr(b, f)))
            for f in ("in_counts", "out_counts", "in_bytes", "out_bytes")
        )

    @pytest.mark.parametrize("workers", [1, 4])
    def test_workers_bit_identical(self, coupled_result, workers):
        serial = FleetScenario.from_matchmaking(
            coupled_result
        ).aggregate_per_second(workers=1)
        sharded = FleetScenario.from_matchmaking(
            coupled_result
        ).aggregate_per_second(workers=workers)
        assert self._series_equal(serial, sharded)

    def test_warm_cache_replays_bit_identically(self, coupled_result, tmp_path):
        cache = ShardCache(tmp_path / "shards")
        cold = FleetScenario.from_matchmaking(
            coupled_result, cache=cache
        ).aggregate_per_second(workers=1)
        warm_cache = ShardCache(tmp_path / "shards")
        warm = FleetScenario.from_matchmaking(
            coupled_result, cache=warm_cache
        ).aggregate_per_second(workers=1)
        assert warm_cache.stats.hits == len(coupled_result.capacities)
        assert warm_cache.stats.stores == 0
        assert self._series_equal(cold, warm)


class TestScenarios:
    """Scenario compilation, validation and drain semantics."""

    @settings(max_examples=80, deadline=None)
    @given(
        hazard=st.floats(min_value=0.0, max_value=0.5, allow_subnormal=False),
        dt=st.floats(min_value=1e-3, max_value=600.0),
        scales=st.lists(
            st.one_of(
                st.sampled_from([0.0, 1.0, 3.5]),
                st.floats(min_value=0.0, max_value=10.0, allow_subnormal=False),
            ),
            min_size=1,
            max_size=8,
        ),
        data=st.data(),
    )
    def test_per_region_attempt_probabilities_equal_per_player(
        self, hazard, dt, scales, data
    ):
        # the engine and its oracle share this method, so parity alone
        # cannot catch a drift: pin it against the per-player expression
        n_regions = len(scales)
        regions = np.asarray(
            data.draw(
                st.lists(st.integers(0, n_regions - 1), min_size=0, max_size=300)
            ),
            dtype=np.int64,
        )
        compiled = CompiledScenario(
            name="probe",
            hazard_scale=np.asarray([np.ones(n_regions), scales]),
            capacity_scale=np.ones((2, 1)),
            force_downloads=np.zeros(2, dtype=bool),
        )
        got = attempt_probabilities(compiled, 1, hazard, dt, regions)
        scale = compiled.hazard_scale[1]
        expected = 1.0 - np.exp(-hazard * scale[regions] * dt)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_event_window_validation(self):
        with pytest.raises(ValueError):
            FlashCrowd(-1, 5)
        with pytest.raises(ValueError):
            FlashCrowd(5, 5)
        with pytest.raises(ValueError):
            RegionalOutage(0, 5)  # needs region or servers
        with pytest.raises(ValueError):
            RegionalOutage(0, 5, region="eu", capacity_scale=1.5)
        with pytest.raises(ValueError):
            DemandScenario("empty", ())

    def test_compile_rejects_unknown_names(self):
        fleet, config, rtt = _scenario()
        bad_region = DemandScenario(
            "x", (FlashCrowd(1, 3, regions=("atlantis",)),)
        )
        with pytest.raises(ValueError, match="atlantis"):
            bad_region.compile(
                config.n_epochs, rtt.region_names, rtt.server_regions
            )
        bad_server = DemandScenario(
            "y", (RegionalOutage(1, 3, servers=(99,)),)
        )
        with pytest.raises(ValueError, match="99"):
            bad_server.compile(
                config.n_epochs, rtt.region_names, rtt.server_regions
            )
        bare = DemandScenario("z", (DemandEvent(1, 3),))
        with pytest.raises(TypeError):
            bare.compile(config.n_epochs, rtt.region_names, rtt.server_regions)

    def test_make_scenario_unknown_name(self):
        with pytest.raises(KeyError):
            make_scenario("tsunami", 30)

    def test_outage_drains_without_eviction(self):
        # every server down for a window: no *new* sessions start inside
        # it, but live sessions play out (occupancy decays, never jumps
        # to zero) and configured capacity is still respected
        fleet, config, rtt = _scenario(
            demand_ratio=1.0, session_duration_mean=300.0
        )
        n = config.n_epochs
        start, end = 6, 9
        outage = DemandScenario(
            "total_outage",
            (RegionalOutage(
                start, end,
                servers=tuple(range(fleet.n_servers)),
                capacity_scale=0.0,
            ),),
        )
        result = simulate_matchmaking(
            fleet, "least_loaded", config, rtt=rtt, scenario=outage
        )
        epoch = config.epoch_length
        for server_sessions in result.sessions:
            for record in server_sessions:
                assert not (start * epoch <= record.start < end * epoch)
        total = result.total_occupancy_series()
        assert total[start - 1] > 0  # something to drain
        # strictly no admissions => occupancy is non-increasing in-window
        assert all(
            total[k + 1] <= total[k] for k in range(start - 1, end - 1)
        )
        assert np.all(
            result.occupancy <= np.asarray(result.capacities)[:, None]
        )

    def test_flash_crowd_raises_attempts(self):
        fleet, config, rtt = _scenario(demand_ratio=0.8)
        base = simulate_matchmaking(fleet, "least_loaded", config, rtt=rtt)
        crowd = simulate_matchmaking(
            fleet, "least_loaded", config, rtt=rtt,
            scenario=make_scenario("flash_crowd", config.n_epochs),
        )
        assert crowd.admission.attempts > base.admission.attempts

    def test_patch_day_forces_downloads(self):
        fleet, config, rtt = _scenario(demand_ratio=1.0)
        n = config.n_epochs
        storm = DemandScenario(
            "storm", (PatchDayStorm(2, n, rate_scale=1.5),)
        )
        result = simulate_matchmaking(
            fleet, "least_loaded", config, rtt=rtt, scenario=storm
        )
        epoch = config.epoch_length
        in_storm = [
            record
            for server_sessions in result.sessions
            for record in server_sessions
            if record.start >= 2 * epoch
        ]
        assert in_storm
        assert all(record.wants_download for record in in_storm)

    def test_compiled_capacities_identity_off_event(self):
        fleet, config, rtt = _scenario()
        scenario = DemandScenario(
            "one_down", (RegionalOutage(4, 8, servers=(1,)),)
        )
        compiled = scenario.compile(
            config.n_epochs, rtt.region_names, rtt.server_regions
        )
        capacities = np.asarray(
            [fleet.server_profile(i).max_players for i in range(3)],
            dtype=np.int64,
        )
        # outside the event the *same object* comes back
        assert compiled.capacities_at(0, capacities) is capacities
        inside = compiled.capacities_at(4, capacities)
        assert inside is not capacities
        assert inside[1] == 0
        assert inside[0] == capacities[0] and inside[2] == capacities[2]
        assert compiled.any_capacity_modulation

    def test_stock_outage_region_may_be_absent(self):
        # the stock regional_outage targets "eu"; a fleet whose servers
        # all live elsewhere compiles to a demand-only perturbation
        # rather than erroring (the region *name* is valid)
        fleet, config, rtt = _scenario()
        scenario = make_scenario("regional_outage", config.n_epochs)
        compiled = scenario.compile(
            config.n_epochs, rtt.region_names, rtt.server_regions
        )
        if not np.any(
            rtt.server_regions == rtt.region_names.index("eu")
        ):
            assert not compiled.any_capacity_modulation


class TestQoeObservability:
    """Coupled runs annotate the epoch stream and bump qoe counters."""

    def test_stream_and_counters(self, tmp_path):
        fleet, config, rtt = _scenario()
        config = config.replace(qoe=QoeConfig(enabled=True))
        scenario = make_scenario("flash_crowd", config.n_epochs)
        obs.start_trace_session(tmp_path / "trace", seed=3)
        try:
            result = simulate_matchmaking(
                fleet, "capacity_aware", config, rtt=rtt, scenario=scenario
            )
        finally:
            obs.end_trace_session()
        rows = obs.read_jsonl(tmp_path / "trace" / "matchmaking_epochs.jsonl")
        assert len(rows) == config.n_epochs
        for row in rows:
            assert 0.0 < row["qoe_mean_multiplier"] <= 1.0
            assert row["qoe_sessions_shortened"] >= 0
            assert row["qoe_repeat_refusals"] >= 0
            assert row["effective_capacity"] == row["capacity"]
        assert sum(r["qoe_repeat_refusals"] for r in rows) == (
            result.qoe_repeat_refusals
        )
        from repro.obs.export import load_manifest

        manifest = load_manifest(tmp_path / "trace")
        metrics = manifest["metrics"]
        assert metrics["matchmaking.qoe.sessions"] == (
            result.admission.admitted
        )
        assert metrics["matchmaking.qoe.repeat_refusals"] == (
            result.qoe_repeat_refusals
        )
        assert "matchmaking.qoe.sessions_shortened" in metrics

    def test_effective_capacity_tracks_outage(self, tmp_path):
        fleet, config, rtt = _scenario()
        start, end = 4, 9
        scenario = DemandScenario(
            "one_down", (RegionalOutage(start, end, servers=(1,)),)
        )
        obs.start_trace_session(tmp_path / "trace", seed=3)
        try:
            simulate_matchmaking(
                fleet, "least_loaded", config, rtt=rtt, scenario=scenario
            )
        finally:
            obs.end_trace_session()
        rows = obs.read_jsonl(tmp_path / "trace" / "matchmaking_epochs.jsonl")
        dips = [r for r in rows if r["effective_capacity"] < r["capacity"]]
        assert dips
        for row in rows:
            # qoe is off: scenario fields present, qoe fields absent
            assert "qoe_mean_multiplier" not in row
        assert {r["epoch"] for r in dips} == set(range(start, end))


class TestRetryHorizonBoundary:
    """Epoch-granular retries stop cleanly at the horizon."""

    def test_huge_delay_schedules_nothing(self):
        # a retry drawn past the horizon is a balk, not a pending event
        fleet, config, rtt = _scenario(retry_delay_mean=1e9)
        for simulate in SIMULATORS.values():
            result = simulate(fleet, "capacity_aware", config, rtt=rtt)
            assert result.admission.retried == 0
            assert result.admission.rejected > 0
            assert result.admission.balked == result.admission.rejected

    @pytest.mark.parametrize("engine", ["scalar", "columnar"])
    @pytest.mark.parametrize("policy", ["least_loaded", "sticky", "random"])
    def test_prefix_occupancy_unchanged_by_horizon(self, engine, policy):
        # epochs share per-epoch RNG streams, so for non-retrying
        # policies a longer horizon replays the shorter run's occupancy
        # prefix exactly — nothing scheduled past the boundary reaches
        # back inside it
        short_fleet, short_config, rtt = _scenario(duration=600.0)
        long_fleet, long_config, long_rtt = _scenario(duration=1200.0)
        np.testing.assert_array_equal(rtt.matrix, long_rtt.matrix)
        simulate = SIMULATORS[engine]
        short = simulate(short_fleet, policy, short_config, rtt=rtt)
        extended = simulate(long_fleet, policy, long_config, rtt=long_rtt)
        n_short = short.n_epochs
        np.testing.assert_array_equal(
            short.occupancy, extended.occupancy[:, :n_short]
        )

    def test_retry_horizon_decision_is_the_only_prefix_channel(self):
        # capacity_aware is the one retrying policy: a retry drawn past
        # the short horizon balks there but waits in the long run, so
        # the player's *later in-prefix attempts* may differ — the
        # documented epoch-granular boundary semantics.  Disabling
        # retries must restore exact prefix equality.
        short_fleet, short_config, rtt = _scenario(
            duration=600.0, retry_probability=0.0
        )
        long_fleet, long_config, long_rtt = _scenario(
            duration=1200.0, retry_probability=0.0
        )
        short = simulate_matchmaking(
            short_fleet, "capacity_aware", short_config, rtt=rtt
        )
        extended = simulate_matchmaking(
            long_fleet, "capacity_aware", long_config, rtt=long_rtt
        )
        assert short.admission.retried == 0
        np.testing.assert_array_equal(
            short.occupancy, extended.occupancy[:, : short.n_epochs]
        )


class TestLatencyAwareDegenerate:
    """alpha=0, beta=0: constant score, argmax picks lowest open index."""

    def test_places_at_lowest_open_index(self):
        fleet, config, rtt = _scenario()
        degenerate = simulate_matchmaking(
            fleet, LatencyAwarePolicy(alpha=0.0, beta=0.0), config, rtt=rtt
        )
        # with a constant score over open servers, every admission goes
        # to the lowest-index server with a free slot — so whenever a
        # session starts on server s, every lower-index server is full
        # at that instant; verify via the epoch trace: server 0 fills
        # first and only then do higher servers admit
        first_starts = [
            min((r.start for r in sessions), default=np.inf)
            for sessions in degenerate.sessions
        ]
        assert first_starts[0] <= first_starts[1] <= first_starts[2]
        # and the engine agrees with the oracle on the degenerate case
        _assert_identical(
            degenerate,
            simulate_reference(
                fleet, LatencyAwarePolicy(alpha=0.0, beta=0.0), config,
                rtt=rtt,
            ),
        )


class TestForFleetBaseProfile:
    """Satellite fix: a base_profile override is effective everywhere."""

    def test_durations_follow_override(self):
        from repro.gameserver.config import ServerProfile

        fleet = hosting_facility(n_servers=2, duration=600.0, seed=0)
        override = ServerProfile(
            session_duration_mean=1234.0, session_duration_cv=0.5
        )
        config = PoolConfig.for_fleet(fleet, base_profile=override)
        assert config.base_profile is override
        assert config.session_duration_mean == 1234.0
        assert config.session_duration_cv == 0.5

    def test_calibration_uses_override_mean(self):
        from repro.gameserver.config import ServerProfile

        fleet = hosting_facility(n_servers=2, duration=600.0, seed=0)
        short = PoolConfig.for_fleet(
            fleet,
            base_profile=ServerProfile(session_duration_mean=100.0),
        )
        long = PoolConfig.for_fleet(
            fleet,
            base_profile=ServerProfile(session_duration_mean=1000.0),
        )
        # same demand ratio: shorter sessions need a higher attempt rate
        assert short.attempt_rate_per_player == pytest.approx(
            10.0 * long.attempt_rate_per_player
        )


class TestRttDescribeTruncation:
    """Satellite fix: describe() stays readable at fleet scale."""

    def _matrix(self, n_servers):
        fleet = hosting_facility(
            n_servers=n_servers, duration=600.0, seed=3
        )
        config = PoolConfig.for_fleet(fleet)
        return RttMatrix.for_fleet(fleet, config.region_profile, seed=3)

    def test_small_matrix_prints_every_server(self):
        text = self._matrix(6).describe()
        lines = text.splitlines()
        assert len(lines) == 1 + 6
        assert "omitted" not in text
        assert lines[0].endswith("4 regions x 6 servers")

    def test_large_matrix_truncates_with_count(self):
        matrix = self._matrix(40)
        text = matrix.describe()
        lines = text.splitlines()
        # header + 12 server rows + one ellipsis line
        assert len(lines) == 1 + 12 + 1
        assert "... (28 servers omitted) ..." in text
        assert "server  0 " in text and "server 39 " in text
        assert lines[0].endswith("x 40 servers")

    def test_max_servers_knob(self):
        matrix = self._matrix(10)
        assert len(matrix.describe(max_servers=4).splitlines()) == 1 + 4 + 1
        assert len(matrix.describe(max_servers=10).splitlines()) == 1 + 10
        with pytest.raises(ValueError):
            matrix.describe(max_servers=1)


class TestDescribeWarmupCut:
    """Satellite fix: describe(after=) matches the experiment tables."""

    def test_after_changes_reported_stats(self):
        fleet, config, rtt = _scenario(duration=1200.0)
        result = simulate_matchmaking(fleet, "least_loaded", config, rtt=rtt)
        full = result.describe()
        cut = result.describe(after=600.0)
        assert full != cut
        # the cut line reports post-warmup utilization and RTT
        stats = result.occupancy_stats(after=600.0)
        assert f"utilization {stats.utilization:5.1%}" in cut

    def test_after_zero_is_the_old_output(self):
        fleet, config, rtt = _scenario()
        result = simulate_matchmaking(fleet, "least_loaded", config, rtt=rtt)
        assert result.describe() == result.describe(after=0.0)
