"""End-to-end tests of the churn experiment and its CLI plumbing."""

import numpy as np
import pytest

from repro.core.facility import RecoveryStats
from repro.experiments import churn
from repro.experiments.base import RunConfig, RunConfigError
from repro.matchmaking import POLICIES, SCENARIOS


@pytest.fixture(scope="module")
def output():
    return churn.run(seed=0)


class TestChurnExperiment:
    def test_all_rows_pass(self, output):
        assert output.passed, output.render()

    def test_all_policies_swept(self, output):
        assert set(output.extras["results"]) == set(POLICIES)
        assert set(output.extras["occupancy_recovery"]) == set(POLICIES)
        assert set(output.extras["rtt_recovery"]) == set(POLICIES)

    def test_qoe_enabled_everywhere(self, output):
        for result in output.extras["results"].values():
            assert result.config.qoe.enabled
            assert result.scenario_name == "flash_crowd"

    def test_recovery_metrics_are_recovery_stats(self, output):
        for stats in output.extras["occupancy_recovery"].values():
            assert isinstance(stats, RecoveryStats)
            assert stats.baseline > 0
            assert stats.overshoot >= 0 and stats.undershoot >= 0

    def test_recovery_discriminates_policies(self, output):
        # the acceptance criterion: at least two policies report
        # different trajectories
        keyed = {
            (s.time_to_baseline, s.overshoot, s.undershoot)
            for s in output.extras["occupancy_recovery"].values()
        }
        assert len(keyed) >= 2

    def test_perturbation_visible(self, output):
        stats = output.extras["occupancy_recovery"][churn.REFERENCE_POLICY]
        assert stats.peak_deviation > churn.RECOVERY_TOLERANCE * stats.baseline

    def test_coupling_changes_trajectory(self, output):
        reference = output.extras["results"][churn.REFERENCE_POLICY]
        uncoupled = output.extras["uncoupled"]
        assert not uncoupled.config.qoe.enabled
        assert not np.array_equal(uncoupled.occupancy, reference.occupancy)

    def test_notes_report_per_policy_recovery(self, output):
        text = output.render()
        for name in POLICIES:
            assert name in text
        assert "occ ttb" in text
        assert "qoe mult" in text

    def test_scenario_override(self):
        out = churn.run(seed=0, config=RunConfig(scenario="patch_day"))
        assert out.passed, out.render()
        assert out.extras["scenario"].name == "patch_day"

    def test_qoe_overrides_reach_the_config(self):
        out = churn.run(
            seed=0,
            config=RunConfig(
                qoe_duration_floor=0.5,
                qoe_rtt_good=20.0,
                qoe_rtt_scale=80.0,
                qoe_balk_escalation=0.9,
            ),
        )
        qoe = out.extras["config"].qoe
        assert qoe.duration_floor == 0.5
        assert qoe.rtt_good_ms == 20.0
        assert qoe.rtt_scale_ms == 80.0
        assert qoe.balk_escalation == 0.9

    def test_bad_overrides_rejected(self):
        for field, value in (
            ("scenario", "tsunami"),
            ("qoe_duration_floor", 0.0),
            ("qoe_rtt_scale", -1.0),
            ("qoe_balk_escalation", 2.0),
        ):
            with pytest.raises(RunConfigError) as excinfo:
                RunConfig(**{field: value})
            assert excinfo.value.field == field

    def test_every_stock_scenario_passes(self):
        for name in sorted(SCENARIOS):
            if name == RunConfig.scenario:
                continue  # covered by the module fixture
            out = churn.run(seed=0, config=RunConfig(scenario=name))
            assert out.passed, f"{name}: {out.render()}"

    def test_deterministic_across_runs(self, output):
        again = churn.run(seed=0)
        first = output.extras["results"]["least_loaded"]
        second = again.extras["results"]["least_loaded"]
        np.testing.assert_array_equal(first.occupancy, second.occupancy)
        assert first.admission == second.admission
