"""Unit tests for provisioning models, NAT analysis and report rendering."""

import numpy as np
import pytest
from helpers import quick_test_profile

from repro.core.natanalysis import NatAnalysis
from repro.core.provisioning import (
    CapacityPlan,
    PerPlayerModel,
    linearity_experiment,
)
from repro.core.report import (
    ComparisonRow,
    all_rows_ok,
    format_value,
    render_table,
)
from repro.gameserver.config import olygamer_week
from repro.router.nat import NatDevice


class TestPerPlayerModel:
    def test_from_profile_near_40kbps(self):
        model = PerPlayerModel.from_profile(olygamer_week())
        assert model.bandwidth_bps == pytest.approx(40_000.0, rel=0.15)
        assert 30.0 <= model.pps <= 50.0



class TestCapacityPlan:
    def test_smc_class_device_cannot_host_full_server(self):
        per_player = PerPlayerModel.from_profile(olygamer_week())
        plan = CapacityPlan(device_pps_capacity=1250.0, per_player=per_player)
        assert not plan.supports_server(22)

    def test_carrier_class_device_can(self):
        per_player = PerPlayerModel.from_profile(olygamer_week())
        plan = CapacityPlan(device_pps_capacity=100_000.0, per_player=per_player)
        assert plan.supports_server(22)
        assert plan.max_servers(22) >= 10

    def test_validation(self):
        plan = CapacityPlan(1250.0, PerPlayerModel(40_000.0, 0.0))
        with pytest.raises(ValueError):
            plan.max_players()
        plan2 = CapacityPlan(1250.0, PerPlayerModel(40_000.0, 38.0))
        with pytest.raises(ValueError):
            plan2.max_servers(0)


class TestLinearityExperiment:
    def test_small_sweep_is_linear(self):
        result = linearity_experiment(
            quick_test_profile(),
            player_counts=(2, 4, 6, 8),
            duration=300.0,
            seed=1,
        )
        assert result.pps_fit.r_squared >= 0.9
        assert result.kbps_fit.r_squared >= 0.9
        assert result.kbps_per_player > 10.0
        assert result.pps_per_player > 10.0

    def test_invalid_player_count(self):
        with pytest.raises(ValueError):
            linearity_experiment(
                quick_test_profile(), player_counts=(0,), duration=100.0
            )


class TestNatAnalysis:
    def test_from_result(self, quick_trace):
        result = NatDevice(seed=3).run(quick_trace)
        analysis = NatAnalysis.from_result(result)
        assert analysis.clients_to_nat == result.clients_to_nat
        assert analysis.nat_to_server == result.nat_to_server
        assert analysis.mean_forwarding_delay >= 0.0
        assert len(analysis.series.clients_to_nat) > 0

    def test_loss_asymmetry_handles_zero(self, quick_trace):
        result = NatDevice(seed=3).run(quick_trace)
        analysis = NatAnalysis.from_result(result)
        asymmetry = analysis.loss_asymmetry()
        assert asymmetry >= 0.0 or asymmetry == float("inf")

    def test_dropout_validation(self, quick_trace):
        result = NatDevice(seed=3).run(quick_trace)
        analysis = NatAnalysis.from_result(result)
        with pytest.raises(ValueError):
            analysis.series.dropout_seconds(threshold_fraction=1.5)


class TestReportRendering:
    def test_comparison_row_tolerance(self):
        assert ComparisonRow("x", 100.0, 120.0).ok
        assert not ComparisonRow("x", 100.0, 300.0).ok
        assert ComparisonRow("x", 100.0, 260.0, tolerance_factor=3.0).ok

    def test_all_rows_ok(self):
        rows = [ComparisonRow("a", 1.0, 1.0), ComparisonRow("b", 2.0, 2.1)]
        assert all_rows_ok(rows)
        rows.append(ComparisonRow("c", 1.0, 10.0))
        assert not all_rows_ok(rows)

    def test_render_table_contains_rows(self):
        text = render_table(
            "Demo", [ComparisonRow("metric", 100.0, 110.0, unit="pps")],
            notes=["scaled run"],
        )
        assert "Demo" in text
        assert "metric [pps]" in text
        assert "note: scaled run" in text
        assert "yes" in text

    def test_render_table_marks_failures(self):
        text = render_table("Demo", [ComparisonRow("bad", 1.0, 99.0)])
        assert "NO" in text

    def test_format_value_ranges(self):
        assert format_value(0) == "0"
        assert format_value(2_500_000) == "2,500,000"
        assert format_value(123.456) == "123.5"
        assert format_value(1.234) == "1.23"
        assert format_value(0.01234) == "0.0123"
