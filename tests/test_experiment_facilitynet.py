"""End-to-end test of the facilitynet experiment and its CLI wiring."""

import numpy as np
import pytest

from repro.experiments import facilitynet, runner


@pytest.fixture(scope="module")
def output():
    return facilitynet.run(seed=0)


class TestFacilitynetExperiment:
    def test_reproduces_within_tolerance(self, output):
        failing = [row.name for row in output.rows if not row.ok]
        assert output.passed, f"rows outside tolerance: {failing}"

    def test_uplink_loss_monotone_over_sweep(self, output):
        sweep = output.extras["sweep"]
        assert sweep.ratios == facilitynet.RATIOS
        assert np.all(np.diff(sweep.uplink_loss) >= 0.0)
        assert sweep.uplink_loss[0] == 0.0
        assert sweep.uplink_loss[-1] > 0.0

    def test_uplink_saturates_first(self, output):
        sweep = output.extras["sweep"]
        assert sweep.saturating_tier() == "uplink"
        # headroom tiers never drop anywhere in the sweep
        assert np.all(sweep.tier_loss["rack"] == 0.0)
        assert np.all(sweep.tier_loss["core"] == 0.0)

    def test_worker_counts_bit_identical(self, output):
        assert output.extras["parallel_identical"] is True
        (row,) = [
            r for r in output.rows
            if r.name == "per-hop results bit-identical (1 vs 4 workers)"
        ]
        assert row.measured == 1.0

    def test_latency_budget_dominated_by_uplink(self, output):
        budget = output.extras["latency_budget"]
        assert budget.dominant_tier == "uplink"
        assert budget.total_mean_s > 0.0

    def test_registered_in_runner(self):
        assert "facilitynet" in runner.REGISTRY
        assert runner.REGISTRY["facilitynet"] is facilitynet.run
        assert "facilitynet" in runner.DESCRIPTIONS
