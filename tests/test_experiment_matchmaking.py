"""End-to-end tests of the matchmaking experiment and its CLI plumbing."""

import numpy as np
import pytest

from repro.experiments import matchmaking
from repro.experiments.base import RunConfig, RunConfigError
from repro.matchmaking import POLICIES


@pytest.fixture(scope="module")
def output():
    return matchmaking.run(seed=0)


class TestMatchmakingExperiment:
    def test_all_rows_pass(self, output):
        assert output.passed, output.render()

    def test_all_policies_compared(self, output):
        assert set(output.extras["results"]) == set(POLICIES)
        assert set(output.extras["envelopes"]) == set(POLICIES)

    def test_identical_demand_process(self, output):
        # one pool config drives every policy
        configs = [r.config for r in output.extras["results"].values()]
        assert all(config == configs[0] for config in configs)

    def test_load_aware_beats_blind_placement(self, output):
        results = output.extras["results"]
        assert (
            results["least_loaded"].rejection_rate
            < results["random"].rejection_rate
        )
        stats = output.extras["occupancy_stats"]
        assert stats["least_loaded"].utilization > stats["random"].utilization

    def test_notes_report_policy_deltas(self, output):
        text = output.render()
        for name in POLICIES:
            assert name in text
        assert "gain-vs-random" in text
        assert "rtt ms" in text
        assert "occupancy-vs-RTT frontier" in text

    def test_latency_aware_beats_least_loaded_on_rtt(self, output):
        # the acceptance criterion of the latency-aware sweep: strictly
        # lower mean session RTT at a few points of utilization at most
        latencies = output.extras["latency_stats"]
        stats = output.extras["occupancy_stats"]
        assert (
            latencies["latency_aware"].mean_ms
            < latencies["least_loaded"].mean_ms
        )
        assert (
            stats["latency_aware"].utilization
            >= stats["least_loaded"].utilization - 0.05
        )

    def test_frontier_holds_a_latency_aware_policy(self, output):
        frontier = output.extras["frontier"]
        assert frontier
        # every frontier member is a swept policy, and at least one of
        # the RTT-aware policies earns a place on it
        assert set(frontier) <= set(POLICIES)
        assert {"latency_aware", "lowest_rtt"} & set(frontier)

    def test_one_rtt_geometry_for_the_whole_sweep(self, output):
        rtt = output.extras["rtt"]
        for result in output.extras["results"].values():
            assert result.rtt is rtt

    def test_policy_override_narrows_the_run(self):
        narrowed = matchmaking.run(
            seed=0, config=RunConfig(policy="least_loaded")
        )
        assert set(narrowed.extras["results"]) == {"least_loaded"}
        assert narrowed.passed, narrowed.render()

    def test_pool_size_override(self):
        small = matchmaking.run(
            seed=0, config=RunConfig(policy="random", pool_size=200)
        )
        assert small.extras["config"].pool_size == 200

    def test_bad_overrides_rejected(self):
        for field, value in (
            ("policy", "nonexistent"),
            ("pool_size", 0),
            ("rtt_profile", "atlantis"),
            ("alpha", -1.0),
            ("beta", float("nan")),
        ):
            with pytest.raises(RunConfigError) as excinfo:
                RunConfig(**{field: value})
            assert excinfo.value.field == field
        # a pool no larger than the facility is judged at run time
        with pytest.raises(RunConfigError) as excinfo:
            matchmaking.run(seed=0, config=RunConfig(pool_size=2))
        assert excinfo.value.field == "pool_size"

    def test_degenerate_latency_settings_still_pass(self):
        # --beta 0 and --rtt-profile uniform are documented parity
        # regimes (latency_aware == least_loaded), so the experiment
        # must relax its strict-RTT row rather than report failure
        flat_beta = matchmaking.run(seed=0, config=RunConfig(beta=0.0))
        assert flat_beta.passed, flat_beta.render()
        assert "latency term disabled" in flat_beta.render()
        latencies = flat_beta.extras["latency_stats"]
        assert (
            latencies["latency_aware"].mean_ms
            == latencies["least_loaded"].mean_ms
        )

    def test_all_zero_weights_still_pass(self):
        # alpha = beta = 0 makes the score constant (lowest-open-index
        # placement) — no RTT parity to claim, but still a valid run
        degenerate = matchmaking.run(
            seed=0, config=RunConfig(alpha=0.0, beta=0.0)
        )
        assert degenerate.passed, degenerate.render()
        text = degenerate.render()
        assert "lowers mean session RTT" not in text
        assert "latency term disabled" not in text

    def test_rtt_profile_override_swaps_geometry(self):
        flat = matchmaking.run(
            seed=0, config=RunConfig(policy="lowest_rtt", rtt_profile="uniform")
        )
        assert flat.extras["rtt"].is_uniform
        assert flat.passed, flat.render()

    def test_weight_overrides_reach_the_policy(self, monkeypatch):
        simulated = []

        def spy(fleet, policy, *args, **kwargs):
            simulated.append(policy)
            return simulate(fleet, policy, *args, **kwargs)

        simulate = matchmaking.simulate_matchmaking
        monkeypatch.setattr(matchmaking, "simulate_matchmaking", spy)
        matchmaking.run(
            seed=0,
            config=RunConfig(policy="latency_aware", alpha=2.0, beta=0.25),
        )
        [policy] = simulated
        assert policy.alpha == 2.0
        assert policy.beta == 0.25

    def test_deterministic_across_runs(self, output):
        again = matchmaking.run(seed=0)
        a = output.extras["aggregates"]["least_loaded"]
        b = again.extras["aggregates"]["least_loaded"]
        assert all(
            np.array_equal(getattr(a, name), getattr(b, name))
            for name in ("in_counts", "out_counts", "in_bytes", "out_bytes")
        )
