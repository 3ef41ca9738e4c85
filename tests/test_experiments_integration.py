"""Integration tests: full experiment pipelines on scaled-down scenarios.

``test_experiment_outputs.py`` runs every experiment at full scale
against the paper; these tests verify the pipelines end-to-end at
reduced cost and check the qualitative claims that must hold at any
scale.
"""

import numpy as np
import pytest

from repro.core.natanalysis import NatAnalysis
from repro.core.packetsize import PacketSizeAnalysis
from repro.core.summary import GeneralTraceInfo, NetworkUsage
from repro.experiments.runner import REGISTRY, run_experiments
from repro.gameserver.config import olygamer_week
from repro.gameserver.fluid import CountLevelGenerator
from repro.gameserver.generator import PacketLevelGenerator
from repro.router.nat import NatDevice


@pytest.fixture(scope="module")
def two_hour_trace(full_profile, full_population):
    generator = PacketLevelGenerator(
        full_profile, population=full_population, seed=5
    )
    return generator.generate(100.0, 1900.0)


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {
            "table1", "table2", "table3", "table4",
            *(f"fig{i}" for i in range(1, 16)),
            "caching", "linearity", "buffering", "aggregation", "closedloop",
            "sourcemodel", "fleet", "facilitynet", "matchmaking", "churn",
        }
        assert set(REGISTRY) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiments(["nonexistent"])


class TestScaledPipelines:
    def test_structural_asymmetry(self, two_hour_trace):
        usage = NetworkUsage.from_trace(two_hour_trace, duration=1800.0)
        assert usage.mean_packet_load_in > usage.mean_packet_load_out
        assert usage.mean_bandwidth_out_kbps > usage.mean_bandwidth_in_kbps
        assert usage.mean_packet_size_out > 3.0 * usage.mean_packet_size_in

    def test_packet_sizes_tiny(self, two_hour_trace):
        analysis = PacketSizeAnalysis.from_trace(two_hour_trace)
        assert analysis.fraction_under(200.0) > 0.9
        assert analysis.mean_in == pytest.approx(39.7, rel=0.1)

    def test_session_statistics(self, full_population):
        info = GeneralTraceInfo.from_population(full_population)
        assert info.established_connections > 0
        assert info.attempted_connections >= info.established_connections
        assert info.unique_clients_attempting >= info.unique_clients_establishing

    def test_per_player_clamp(self, full_profile, full_population):
        fluid = CountLevelGenerator(
            full_profile, population=full_population, seed=5
        ).per_second()
        players = full_population.players_at(
            np.arange(len(fluid)) + 0.5
        )
        busy = players >= full_profile.max_players - 2
        if busy.sum() < 100:
            pytest.skip("server not near capacity in this window")
        kbps = fluid.bandwidth_bps(54)[busy].mean() / 1000.0
        per_player = kbps / players[busy].mean()
        assert per_player == pytest.approx(40.0, rel=0.25)

    def test_nat_asymmetry_on_scaled_run(self, two_hour_trace):
        window = two_hour_trace.time_slice(100.0, 1000.0)
        result = NatDevice(seed=9).run(window)
        analysis = NatAnalysis.from_result(result)
        assert analysis.incoming_loss_rate > analysis.outgoing_loss_rate
        assert 0.002 < analysis.incoming_loss_rate < 0.05

    def test_map_dip_present(self, full_profile, full_population):
        fluid = CountLevelGenerator(
            full_profile, population=full_population, seed=5
        ).per_second()
        map_change = int(full_profile.map_duration)
        dip = fluid.total_counts[map_change : map_change + 4].min()
        baseline = fluid.total_counts[map_change - 120 : map_change - 20].mean()
        assert dip < 0.3 * baseline


class TestRunnerCli:
    def test_list_flag(self, capsys):
        from repro.experiments.runner import main

        assert main(["--list"]) == 0
        printed = capsys.readouterr().out
        assert "table1" in printed
        assert "fig15" in printed

    def test_single_experiment_run(self, capsys):
        from repro.experiments.runner import main

        code = main(["table1", "--seed", "0"])
        printed = capsys.readouterr().out
        assert "Table I" in printed
        assert "experiments reproduced" in printed
        assert code in (0, 1)
