"""Unit tests for workload builders: links, web traffic, scenarios."""

import numpy as np
import pytest
from helpers import quick_test_profile

from repro.workloads.links import (
    LINK_CATALOGUE,
    LastMileLink,
    saturation_report,
)
from repro.core.packetsize import PacketSizeAnalysis
from repro.router.nat import NatDevice
from repro.workloads.scenarios import (
    Scenario,
    clear_scenario_cache,
    olygamer_nat_replay,
    olygamer_packet_sizes,
    olygamer_scenario,
)
from repro.workloads.web import WebTrafficModel, generate_web_packets, interleave_streams


class TestLinks:
    def test_modem_saturated_by_game_demand(self):
        modem = LINK_CATALOGUE["modem56k"]
        assert modem.is_saturated_by(40_000.0)

    def test_dsl_not_saturated(self):
        assert not LINK_CATALOGUE["dsl"].is_saturated_by(40_000.0)

    def test_utilisation_math(self):
        link = LastMileLink("x", 100.0, 50.0, 0.01)
        assert link.utilisation(25.0) == pytest.approx(0.5)

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            LINK_CATALOGUE["dsl"].utilisation(-1.0)

    def test_saturation_report_sorted_by_capacity(self):
        report = saturation_report(40_000.0)
        names = [name for name, _, _ in report]
        assert names[0] == "modem56k"
        effective = [LINK_CATALOGUE[n].effective_bps for n in names]
        assert effective == sorted(effective)


class TestWebTraffic:
    def test_generation_shapes(self, rng):
        keys, sizes = generate_web_packets(WebTrafficModel(), 10_000, rng)
        assert keys.shape == sizes.shape == (10_000,)
        assert keys.min() > 1_000_000

    def test_zipf_popularity_skew(self, rng):
        keys, _ = generate_web_packets(WebTrafficModel(), 50_000, rng)
        _, counts = np.unique(keys, return_counts=True)
        top_share = np.sort(counts)[::-1][:10].sum() / counts.sum()
        assert top_share > 0.3  # heavy-tailed popularity

    def test_bimodal_sizes(self, rng):
        model = WebTrafficModel(ack_fraction=0.4)
        _, sizes = generate_web_packets(model, 20_000, rng)
        ack_share = (sizes == model.ack_size).mean()
        assert ack_share == pytest.approx(0.4, abs=0.03)
        assert sizes.max() <= model.data_size_max

    def test_web_mean_far_above_game_mean(self, rng):
        _, sizes = generate_web_packets(WebTrafficModel(), 20_000, rng)
        assert sizes.mean() > 400.0  # the exchange-point contrast

    def test_zero_count(self, rng):
        keys, sizes = generate_web_packets(WebTrafficModel(), 0, rng)
        assert keys.size == 0

    def test_model_validation(self):
        with pytest.raises(ValueError):
            WebTrafficModel(destinations=0)
        with pytest.raises(ValueError):
            WebTrafficModel(zipf_s=1.0)
        with pytest.raises(ValueError):
            WebTrafficModel(ack_fraction=1.5)

    def test_interleave(self, rng):
        game_keys = np.arange(100)
        game_sizes = np.full(100, 40)
        web_keys, web_sizes = generate_web_packets(WebTrafficModel(), 100, rng)
        keys, sizes, labels = interleave_streams(
            rng, game_keys, game_sizes, web_keys, web_sizes
        )
        assert keys.size == 200
        assert (labels == "game").sum() == 100
        assert (labels == "web").sum() == 100

    def test_interleave_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            interleave_streams(
                rng, np.arange(2), np.arange(3), np.arange(2), np.arange(2)
            )


class TestScenario:
    def test_population_cached(self):
        scenario = Scenario(quick_test_profile(), seed=1)
        assert scenario.population is scenario.population

    def test_packet_window_cached_per_window(self):
        scenario = Scenario(quick_test_profile(), seed=1)
        a = scenario.packet_window(0.0, 30.0)
        b = scenario.packet_window(0.0, 30.0)
        c = scenario.packet_window(30.0, 60.0)
        assert a is b
        assert c is not a

    def test_per_minute_is_rebinned_per_second(self):
        scenario = Scenario(quick_test_profile(), seed=1)
        per_second = scenario.per_second_series()
        per_minute = scenario.per_minute_series()
        assert per_minute.bin_size == 60.0
        kept = len(per_minute) * 60
        assert per_minute.total_counts.sum() == pytest.approx(
            per_second.total_counts[:kept].sum()
        )

    def test_global_cache(self):
        clear_scenario_cache()
        a = olygamer_scenario(seed=123)
        b = olygamer_scenario(seed=123)
        assert a is b
        clear_scenario_cache()
        assert olygamer_scenario(seed=123) is not a

    def test_nat_replay_runs_once_per_seed_and_window(self):
        clear_scenario_cache()
        window = (3600.0, 3630.0)
        replay = olygamer_nat_replay(0, *window)
        assert olygamer_nat_replay(0, *window) is replay
        assert olygamer_nat_replay(0, 3600.0, 3640.0) is not replay
        fresh = NatDevice(seed=100).run(olygamer_scenario(0).packet_window(*window))
        for name in ("fates", "departures", "directions", "timestamps"):
            column = getattr(replay.forwarding, name)
            assert np.array_equal(column, getattr(fresh.forwarding, name), equal_nan=True)
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = column[0]
        assert (replay.table_created, replay.table_peak) == (
            fresh.table_created, fresh.table_peak,
        )
        clear_scenario_cache()
        assert olygamer_nat_replay(0, *window) is not replay
        clear_scenario_cache()

    def test_packet_sizes_analysed_once_per_seed_and_window(self):
        clear_scenario_cache()
        window = (3600.0, 3630.0)
        analysis = olygamer_packet_sizes(0, *window)
        assert olygamer_packet_sizes(0, *window) is analysis
        assert olygamer_packet_sizes(0, 3600.0, 3640.0) is not analysis
        fresh = PacketSizeAnalysis.from_trace(olygamer_scenario(0).packet_window(*window))
        for name in ("total", "inbound", "outbound"):
            cdf = getattr(analysis, f"{name}_cdf")
            assert np.array_equal(cdf.sorted_samples, getattr(fresh, f"{name}_cdf").sorted_samples)
            pdf = getattr(analysis, f"{name}_pdf")
            fresh_pdf = getattr(fresh, f"{name}_pdf")
            assert np.array_equal(pdf.counts, fresh_pdf.counts)
            assert np.array_equal(pdf.bin_edges, fresh_pdf.bin_edges)
            for column in (cdf.sorted_samples, pdf.counts, pdf.bin_edges):
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column[0] = column[0]
        assert (analysis.mean_total, analysis.mean_in, analysis.mean_out) == (
            fresh.mean_total, fresh.mean_in, fresh.mean_out,
        )
        clear_scenario_cache()
        assert olygamer_packet_sizes(0, *window) is not analysis
        clear_scenario_cache()
