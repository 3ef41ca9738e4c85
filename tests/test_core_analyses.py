"""Unit tests for packet-size, session, periodicity and self-similarity analyses."""

import numpy as np
import pytest

from repro.core.packetsize import PacketSizeAnalysis
from repro.core.periodicity import PeriodicityAnalysis
from repro.core.selfsimilarity import (
    SelfSimilarityReport,
    stitch_variance_time,
    variance_time_from_counts,
)
from repro.core.sessions import ClientBandwidthAnalysis
from repro.stats.binning import bin_events
from repro.stats.hurst import VarianceTimePlot, VarianceTimePoint
from repro.trace.trace import Trace


class TestPacketSizeAnalysis:
    def test_means_match_trace(self, quick_trace):
        analysis = PacketSizeAnalysis.from_trace(quick_trace)
        assert analysis.mean_in == pytest.approx(
            float(quick_trace.inbound().payload_sizes.mean())
        )
        assert analysis.mean_out == pytest.approx(
            float(quick_trace.outbound().payload_sizes.mean())
        )

    def test_game_traffic_shape(self, quick_trace):
        analysis = PacketSizeAnalysis.from_trace(quick_trace)
        assert analysis.mean_in < 60.0
        assert analysis.mean_out > 100.0
        assert analysis.fraction_under(200.0) > 0.9
        assert analysis.outbound_spread() > analysis.inbound_spread()

    def test_pdf_mass_accounting(self, quick_trace):
        analysis = PacketSizeAnalysis.from_trace(quick_trace)
        in_range = analysis.total_pdf.probabilities.sum()
        assert in_range + analysis.truncation_excess() == pytest.approx(1.0, abs=1e-6)

    def test_cdf_direction_lookup(self, quick_trace):
        analysis = PacketSizeAnalysis.from_trace(quick_trace)
        assert analysis.fraction_under(60.0, "in") > analysis.fraction_under(
            60.0, "out"
        )

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            PacketSizeAnalysis.from_trace(Trace.empty())

    def test_one_direction_rejected(self, quick_trace):
        with pytest.raises(ValueError):
            PacketSizeAnalysis.from_trace(quick_trace.inbound())


class TestClientBandwidthAnalysis:
    def test_from_trace(self, quick_trace):
        analysis = ClientBandwidthAnalysis.from_trace(
            quick_trace, min_duration=10.0
        )
        assert analysis.flow_count > 0
        assert analysis.mean_bandwidth_bps() > 0

    def test_modem_clamp_visible(self, quick_trace):
        analysis = ClientBandwidthAnalysis.from_trace(
            quick_trace, min_duration=10.0
        )
        # most synthetic flows sit at/below ~62 kbps (modem + slack)
        assert analysis.fraction_at_or_below_modem() > 0.6
        assert (
            analysis.fraction_above_modem()
            == pytest.approx(1.0 - analysis.fraction_at_or_below_modem())
        )

    def test_too_strict_duration_raises(self, quick_trace):
        with pytest.raises(ValueError):
            ClientBandwidthAnalysis.from_trace(quick_trace, min_duration=1e6)


class TestPeriodicityAnalysis:
    def test_recovers_tick(self, quick_trace, quick_profile):
        window = quick_trace.time_slice(10.0, 70.0)
        analysis = PeriodicityAnalysis.from_trace(window)
        tick = quick_profile.tick_interval
        assert abs(analysis.recovered_period_out - tick) / tick <= 0.2

    def test_outbound_burstier(self, quick_trace):
        window = quick_trace.time_slice(10.0, 70.0)
        analysis = PeriodicityAnalysis.from_trace(window)
        assert analysis.burstiness_out > analysis.burstiness_in
        assert analysis.peak_to_mean_out > 1.5

    def test_duty_cycle_near_one_in_five(self, quick_trace):
        window = quick_trace.time_slice(10.0, 70.0)
        analysis = PeriodicityAnalysis.from_trace(window)
        assert 0.1 < analysis.outbound_duty_cycle < 0.45

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PeriodicityAnalysis.from_trace(Trace.empty())


class TestSelfSimilarity:
    def test_sub_tick_hurst_of_a_trace_below_half(self, quick_trace):
        window = quick_trace.time_slice(10.0, 110.0)
        counts = bin_events(window.timestamps, 0.01, start_time=10.0, end_time=110.0).counts
        plot = variance_time_from_counts(counts, 0.01)
        assert len(plot.points) > 5
        report = SelfSimilarityReport.from_plot(plot, boundaries=(0.05, 10.0))
        assert report.sub_tick_hurst < 0.5  # tick periodicity

    def test_stitching_extends_range(self):
        rng = np.random.default_rng(0)
        high_series = rng.poisson(10, 60_000).astype(float)
        high = variance_time_from_counts(high_series, 0.01)
        long_series = rng.poisson(1000, 5000).astype(float)
        long_plot = variance_time_from_counts(long_series, 1.0)
        stitched = stitch_variance_time(high, long_plot)
        assert stitched.points[-1].interval_seconds > high.points[-1].interval_seconds
        intervals = [p.interval_seconds for p in stitched.points]
        assert intervals == sorted(intervals)

    def test_stitching_continuity(self):
        rng = np.random.default_rng(1)
        high = variance_time_from_counts(rng.poisson(10, 60_000).astype(float), 0.01)
        long_plot = variance_time_from_counts(rng.poisson(1000, 5000).astype(float), 1.0)
        stitched = stitch_variance_time(high, long_plot)
        # log-variance must not jump discontinuously at the seam
        ys = [p.log_variance for p in stitched.points]
        jumps = np.abs(np.diff(ys))
        assert jumps.max() < 1.5

    def test_stitch_requires_overlap(self):
        high = VarianceTimePlot(
            base_interval=0.01,
            points=(
                VarianceTimePoint(1, 0.01, 1.0),
                VarianceTimePoint(2, 0.02, 0.5),
            ),
        )
        long_plot = VarianceTimePlot(
            base_interval=100.0,
            points=(
                VarianceTimePoint(1, 100.0, 1.0),
                VarianceTimePoint(2, 200.0, 0.5),
            ),
        )
        with pytest.raises(ValueError, match="overlap"):
            stitch_variance_time(high, long_plot)

    def test_report_regime_lookup(self):
        rng = np.random.default_rng(2)
        plot = variance_time_from_counts(rng.poisson(10, 100_000).astype(float), 0.01)
        report = SelfSimilarityReport.from_plot(plot, boundaries=(0.05, 10.0))
        with pytest.raises(KeyError):
            report.regime("nonexistent")
