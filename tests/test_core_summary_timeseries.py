"""Unit tests for trace summaries and rate time-series extraction."""

import numpy as np
import pytest

from repro.core.summary import GeneralTraceInfo, NetworkUsage
from repro.core.timeseries import interval_counts, packet_load_series
from repro.trace.packet import Direction


class TestGeneralTraceInfo:
    def test_from_population(self, quick_population):
        info = GeneralTraceInfo.from_population(quick_population)
        assert info.established_connections == quick_population.established_count
        assert info.attempted_connections == quick_population.attempted_count
        assert info.maps_played == quick_population.maps_played
        assert info.mean_session_minutes == pytest.approx(
            quick_population.mean_session_duration() / 60.0
        )


class TestNetworkUsage:
    def test_totals_and_rates(self, synthetic_trace):
        usage = NetworkUsage.from_trace(synthetic_trace, duration=1.0)
        assert usage.total_packets == 15
        assert usage.packets_in == 10
        assert usage.packets_out == 5
        assert usage.app_bytes == 10 * 40 + 5 * 130
        assert usage.mean_packet_load == pytest.approx(15.0)

    def test_mean_sizes(self, synthetic_trace):
        usage = NetworkUsage.from_trace(synthetic_trace, duration=1.0)
        assert usage.mean_packet_size_in == pytest.approx(40.0)
        assert usage.mean_packet_size_out == pytest.approx(130.0)
        assert usage.mean_packet_size == pytest.approx((400 + 650) / 15)

    def test_wire_vs_app_gap(self, synthetic_trace):
        usage = NetworkUsage.from_trace(synthetic_trace, duration=1.0)
        per_packet = synthetic_trace.overhead.per_packet
        assert usage.wire_bytes - usage.app_bytes == 15 * per_packet

    def test_bandwidth_kbps(self, synthetic_trace):
        usage = NetworkUsage.from_trace(synthetic_trace, duration=1.0)
        expected = 8.0 * usage.wire_bytes / 1000.0
        assert usage.mean_bandwidth_kbps == pytest.approx(expected)

    def test_extrapolation(self, synthetic_trace):
        usage = NetworkUsage.from_trace(synthetic_trace, duration=1.0)
        assert usage.extrapolate_packets(100.0) == pytest.approx(1500.0)
        assert usage.extrapolate_wire_gigabytes(1e9 / usage.wire_bytes) == (
            pytest.approx(1.0)
        )

    def test_invalid_inputs(self, synthetic_trace):
        usage = NetworkUsage.from_trace(synthetic_trace, duration=1.0)
        with pytest.raises(ValueError):
            usage.extrapolate_packets(0.0)
        with pytest.raises(ValueError):
            usage.extrapolate_wire_gigabytes(-1.0)

    def test_zero_window_rejected(self, synthetic_trace):
        single = synthetic_trace.time_slice(0.0, 0.01)
        with pytest.raises(ValueError):
            NetworkUsage.from_trace(single)


class TestPacketLoadSeries:
    def test_total_series(self, synthetic_trace):
        series = packet_load_series(synthetic_trace, 0.1)
        assert series.label == "total"
        assert series.packets_per_second.sum() * 0.1 == pytest.approx(15.0)

    def test_directional_series(self, synthetic_trace):
        inbound = packet_load_series(synthetic_trace, 0.5, direction=Direction.IN)
        outbound = packet_load_series(synthetic_trace, 0.5, direction=Direction.OUT)
        assert inbound.label == "in"
        assert outbound.label == "out"
        total_in = inbound.packets_per_second.sum() * 0.5
        assert total_in == pytest.approx(10.0)

    def test_bandwidth_uses_wire_bytes(self, synthetic_trace):
        series = packet_load_series(synthetic_trace, 1.0)
        assert series.series.weights.sum() == pytest.approx(
            synthetic_trace.wire_sizes().sum()
        )

    def test_explicit_window(self, synthetic_trace):
        series = packet_load_series(
            synthetic_trace, 0.1, start_time=0.0, end_time=2.0
        )
        assert len(series.series) == 20


class TestIntervalCounts:
    def test_first_n_intervals(self, synthetic_trace):
        rates = interval_counts(synthetic_trace, 0.1, 5, start_time=0.0)
        assert rates.size == 5
        # bin 0 holds t=0.0 (in) and t=0.05 (out)
        assert rates[0] == pytest.approx(20.0)

    def test_insufficient_window_raises(self, synthetic_trace):
        with pytest.raises(ValueError):
            interval_counts(synthetic_trace, 1.0, 500, start_time=0.0)

    def test_direction_filter(self, synthetic_trace):
        rates = interval_counts(
            synthetic_trace, 0.1, 5, direction=Direction.OUT, start_time=0.0
        )
        assert rates[0] == pytest.approx(10.0)  # only the t=0.05 packet
