"""End-to-end test of the fleet experiment and its CLI wiring."""

import numpy as np
import pytest

from repro.experiments import fleet, runner


@pytest.fixture(scope="module")
def output():
    return fleet.run(seed=0)


class TestFleetExperiment:
    def test_reproduces_within_tolerance(self, output):
        failing = [row.name for row in output.rows if not row.ok]
        assert output.passed, f"rows outside tolerance: {failing}"

    def test_parallel_matches_serial(self, output):
        row = output.row(
            "parallel (2 workers) aggregate bit-identical to serial"
        )
        assert row.measured == 1.0

    def test_aggregate_spans_sixteen_servers(self, output):
        aggregate = output.extras["aggregate"]
        assert len(aggregate) == int(fleet.HORIZON_S)
        curve = output.extras["provisioning_curve_bps"]
        assert curve.shape == (fleet.FACILITY_SERVERS,)
        assert np.all(np.diff(curve) > 0)  # every server adds demand

    def test_marginal_costs_sum_to_facility_peak(self, output):
        curve = output.extras["provisioning_curve_bps"]
        marginal = output.extras["marginal_cost_bps"]
        assert np.cumsum(marginal)[-1] == pytest.approx(curve[-1])

    def test_registered_in_runner(self):
        assert "fleet" in runner.REGISTRY
        assert runner.REGISTRY["fleet"] is fleet.run


class TestRunnerWorkersFlag:
    def test_list_includes_fleet(self, capsys):
        assert runner.main(["--list"]) == 0
        assert "fleet" in capsys.readouterr().out.split()

    def test_workers_flag_sets_default(self, monkeypatch, capsys):
        from repro.core.report import ComparisonRow
        from repro.experiments.base import ExperimentOutput, RunConfig

        seen = []

        def probe(seed: int = 0, config: RunConfig = RunConfig()):
            seen.append(config.workers)
            return ExperimentOutput(
                "workersprobe", "workers probe", rows=[ComparisonRow("x", 1.0, 1.0)]
            )

        monkeypatch.setitem(runner.REGISTRY, "workersprobe", probe)
        # the flag reaches the experiments in their RunConfig
        assert runner.main(["--workers", "1", "workersprobe"]) == 0
        assert seen == [1]

    def test_workers_flag_rejects_nonpositive(self, capsys):
        # argparse-level validation: clean usage error, exit code 2
        import pytest

        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--workers", "0", "--list"])
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err
