"""Tests for facility-level envelopes, multiplexing and marginal cost."""

import numpy as np
import pytest

from repro.core.facility import FacilityAnalysis, FacilityEnvelope, MultiplexingGain
from repro.gameserver.fluid import FluidSeries


def series_from_pps(pps, bin_size=1.0):
    counts = np.asarray(pps, dtype=float) * bin_size
    return FluidSeries(
        bin_size=bin_size,
        start_time=0.0,
        in_counts=counts / 2,
        out_counts=counts / 2,
        in_bytes=40.0 * counts / 2,
        out_bytes=130.0 * counts / 2,
    )


class TestFacilityEnvelope:
    def test_known_mean_and_max(self):
        envelope = FacilityEnvelope.from_series(
            series_from_pps([100, 100, 200, 0]), overhead_per_packet=0, percentile=100.0
        )
        assert envelope.mean_pps == pytest.approx(100.0)
        assert envelope.peak_pps == pytest.approx(200.0)
        # bytes/packet = (40+130)/2 = 85 -> bps = pps * 85 * 8
        assert envelope.mean_bandwidth_bps == pytest.approx(100.0 * 85.0 * 8.0)
        assert envelope.peak_to_mean_pps == pytest.approx(2.0)
        assert envelope.duration == pytest.approx(4.0)

    def test_overhead_adds_per_packet_bytes(self):
        plain = FacilityEnvelope.from_series(
            series_from_pps([100]), overhead_per_packet=0
        )
        wired = FacilityEnvelope.from_series(
            series_from_pps([100]), overhead_per_packet=50
        )
        assert wired.mean_bandwidth_bps == pytest.approx(
            plain.mean_bandwidth_bps + 100.0 * 50.0 * 8.0
        )

    def test_percentile_below_max(self):
        pps = np.concatenate([np.full(99, 100.0), [1000.0]])
        envelope = FacilityEnvelope.from_series(
            series_from_pps(pps), overhead_per_packet=0, percentile=50.0
        )
        assert envelope.peak_pps == pytest.approx(100.0)

    def test_rejects_empty_series_and_bad_percentile(self):
        with pytest.raises(ValueError):
            FacilityEnvelope.from_series(series_from_pps([]))
        with pytest.raises(ValueError):
            FacilityEnvelope.from_series(series_from_pps([1.0]), percentile=0.0)


class TestFacilityAnalysis:
    @pytest.fixture()
    def offset_peak_analysis(self):
        # two servers bursting at different times: aggregate is flat
        a = series_from_pps([100, 100, 300, 100])
        b = series_from_pps([300, 100, 100, 100])
        return FacilityAnalysis.from_series([a, b], overhead_per_packet=0,
                                            percentile=100.0)

    def test_aggregate_is_sum(self, offset_peak_analysis):
        assert np.array_equal(
            offset_peak_analysis.aggregate.total_counts, [400, 200, 400, 200]
        )
        assert offset_peak_analysis.n_servers == 2

    def test_multiplexing_gain_for_offset_peaks(self, offset_peak_analysis):
        multiplexing = offset_peak_analysis.multiplexing()
        assert isinstance(multiplexing, MultiplexingGain)
        # per-server: 300/150 = 2.0; aggregate: 400/300 = 1.33
        assert multiplexing.gain == pytest.approx(2.0 / (400.0 / 300.0))
        assert multiplexing.gain > 1.0
        # sum of peaks 300+300 vs true aggregate peak 400
        assert multiplexing.overbuild == pytest.approx(1.5)

    def test_provisioning_curve_and_marginal_cost(self, offset_peak_analysis):
        curve = offset_peak_analysis.provisioning_curve_bps()
        marginal = offset_peak_analysis.marginal_cost_bps()
        assert curve.shape == (2,)
        # first server alone peaks at 300 pps, the pair at 400 pps
        assert curve[0] == pytest.approx(300.0 * 85.0 * 8.0)
        assert curve[1] == pytest.approx(400.0 * 85.0 * 8.0)
        assert marginal[0] == pytest.approx(curve[0])
        assert marginal[1] == pytest.approx(curve[1] - curve[0])
        assert np.cumsum(marginal)[-1] == pytest.approx(curve[-1])

    def test_streaming_add_matches_from_series(self, offset_peak_analysis):
        a = series_from_pps([100, 100, 300, 100])
        b = series_from_pps([300, 100, 100, 100])
        streamed = FacilityAnalysis(overhead_per_packet=0, percentile=100.0)
        streamed.add_server(a).add_server(b)
        assert np.array_equal(
            streamed.aggregate.in_counts, offset_peak_analysis.aggregate.in_counts
        )
        assert streamed.provisioning_curve_bps() == pytest.approx(
            offset_peak_analysis.provisioning_curve_bps()
        )

    def test_empty_analysis_rejected(self):
        analysis = FacilityAnalysis()
        with pytest.raises(ValueError):
            analysis.envelope()
        with pytest.raises(ValueError):
            analysis.multiplexing()
        with pytest.raises(ValueError):
            analysis.provisioning_curve_bps()

    def test_default_overhead_is_wire_overhead(self):
        from repro.net.headers import OverheadModel, WIRE_OVERHEAD_UDP_V4

        analysis = FacilityAnalysis()
        assert analysis.overhead_per_packet == OverheadModel(
            WIRE_OVERHEAD_UDP_V4
        ).per_packet


class TestRecoveryStats:
    """Recovery trajectories around scripted demand events."""

    def test_basic_overshoot_and_settle(self):
        from repro.core.facility import RecoveryStats

        series = np.array(
            [10, 10, 10, 10, 30, 40, 30, 20, 11, 10, 10, 10, 10], dtype=float
        )
        stats = RecoveryStats.from_series(
            series, event_start=4, event_end=7,
            tolerance=0.15, settle_epochs=3,
        )
        assert stats.baseline == 10.0
        assert stats.overshoot == 30.0
        assert stats.undershoot == 0.0
        assert stats.peak_deviation == 30.0
        # epoch 7 (20) is out of band; 8..10 are the first 3-epoch
        # in-band run, starting 1 epoch after the event ends
        assert stats.time_to_baseline == 1
        assert stats.time_to_baseline is not None

    def test_never_recovers(self):
        from repro.core.facility import RecoveryStats

        series = np.array([5.0, 5, 5, 50, 50, 50])
        stats = RecoveryStats.from_series(series, 3, 4)
        assert stats.time_to_baseline is None
        assert stats.time_to_baseline is None
        assert stats.overshoot == 45.0

    def test_undershoot_side(self):
        from repro.core.facility import RecoveryStats

        series = np.array([20.0, 20, 20, 5, 8, 20, 20, 20, 20])
        stats = RecoveryStats.from_series(series, 3, 5)
        assert stats.undershoot == 15.0
        assert stats.overshoot == 0.0
        assert stats.time_to_baseline == 0

    def test_nan_epochs_carry_no_evidence(self):
        from repro.core.facility import RecoveryStats

        series = np.array(
            [10.0, np.nan, 10, 10, 40, np.nan, 12, np.nan, 10, 10]
        )
        stats = RecoveryStats.from_series(
            series, 4, 6, tolerance=0.3, settle_epochs=3
        )
        # baseline ignores the NaN; the settle scan treats NaN as
        # in-band, so epochs 6..8 settle immediately
        assert stats.baseline == 10.0
        assert stats.overshoot == 30.0
        assert stats.time_to_baseline == 0

    def test_event_running_to_horizon_never_recovers(self):
        from repro.core.facility import RecoveryStats

        series = np.array([5.0, 5, 5, 50, 50])
        stats = RecoveryStats.from_series(series, 3, 5)
        assert stats.time_to_baseline is None

    def test_validation(self):
        from repro.core.facility import RecoveryStats

        flat = np.ones(10)
        with pytest.raises(ValueError):
            RecoveryStats.from_series(np.ones((2, 5)), 1, 2)
        with pytest.raises(ValueError):
            RecoveryStats.from_series(flat, 0, 2)  # empty pre-window
        with pytest.raises(ValueError):
            RecoveryStats.from_series(flat, 5, 5)
        with pytest.raises(ValueError):
            RecoveryStats.from_series(flat, 5, 11)
        with pytest.raises(ValueError):
            RecoveryStats.from_series(flat, 2, 4, tolerance=0.0)
        with pytest.raises(ValueError):
            RecoveryStats.from_series(flat, 2, 4, settle_epochs=0)
        with pytest.raises(ValueError):
            RecoveryStats.from_series(
                np.array([np.nan, np.nan, 1.0, 1.0]), 2, 3
            )

    def test_zero_baseline_uses_absolute_band(self):
        from repro.core.facility import RecoveryStats

        series = np.array([0.0, 0, 0, 5, 0.05, 0.05, 0.05, 0])
        stats = RecoveryStats.from_series(
            series, 3, 4, tolerance=0.1, settle_epochs=3
        )
        assert stats.baseline == 0.0
        assert stats.time_to_baseline == 0
