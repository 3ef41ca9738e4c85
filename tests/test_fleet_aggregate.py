"""Tests for streaming fluid-series summing and k-way trace merging."""

import numpy as np
import pytest

from repro.fleet import (
    FluidAccumulator,
    TraceAccumulator,
    kway_merge_traces,
    merge_fluid_series,
    sum_fluid_series,
)
from repro.fleet.aggregate import FANIN
from repro.gameserver.fluid import FluidSeries
from repro.net.addresses import IPv4Address
from repro.net.headers import HeaderOverhead, OverheadModel
from repro.trace.packet import Direction
from repro.trace.trace import _COLUMNS, Trace, TraceBuilder


def make_series(values, bin_size=1.0, start=0.0):
    arr = np.asarray(values, dtype=float)
    return FluidSeries(
        bin_size=bin_size,
        start_time=start,
        in_counts=arr,
        out_counts=2 * arr,
        in_bytes=10 * arr,
        out_bytes=20 * arr,
    )


def make_trace(timestamps, server="10.0.0.2", payload=40, overhead=None):
    server = IPv4Address(server)
    builder = TraceBuilder(server_address=server, overhead=overhead)
    for t in timestamps:
        builder.add(t, Direction.IN, IPv4Address("10.0.0.1").value,
                    server.value, 27005, 27015, payload)
    return builder.build()


class TestFluidSum:
    def test_sum_adds_all_four_arrays(self):
        total = sum_fluid_series(make_series([1, 2, 3]), make_series([10, 20, 30]))
        assert np.array_equal(total.in_counts, [11, 22, 33])
        assert np.array_equal(total.out_counts, [22, 44, 66])
        assert np.array_equal(total.in_bytes, [110, 220, 330])
        assert np.array_equal(total.out_bytes, [220, 440, 660])

    def test_none_accumulator_passes_through(self):
        series = make_series([1, 2])
        assert sum_fluid_series(None, series) is series

    def test_length_mismatch_pads_with_zeros(self):
        total = sum_fluid_series(make_series([1, 2, 3, 4]), make_series([1]))
        assert np.array_equal(total.in_counts, [2, 2, 3, 4])
        assert len(total) == 4

    def test_bin_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="bin_size"):
            sum_fluid_series(make_series([1]), make_series([1], bin_size=60.0))

    def test_start_time_mismatch_rejected(self):
        with pytest.raises(ValueError, match="start_time"):
            sum_fluid_series(make_series([1]), make_series([1], start=5.0))

    def test_merge_fluid_series_and_accumulator_agree(self):
        parts = [make_series([i, i + 1]) for i in range(5)]
        merged = merge_fluid_series(parts)
        accumulator = FluidAccumulator()
        for part in parts:
            accumulator.add(part)
        assert np.array_equal(merged.in_counts, accumulator.result().in_counts)
        assert accumulator.servers_added == 5

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError):
            merge_fluid_series([])
        with pytest.raises(ValueError):
            FluidAccumulator().result()


class TestKwayMerge:
    def test_timestamps_sorted_and_ties_keep_source_order(self):
        a = make_trace([0.0, 1.0, 2.0], payload=10)
        b = make_trace([0.5, 1.0, 2.0], payload=20)
        c = make_trace([1.0, 3.0], payload=30)
        merged = kway_merge_traces([a, b, c])
        assert len(merged) == 8
        assert np.all(np.diff(merged.timestamps) >= 0)
        # the three t=1.0 packets appear in source order a, b, c
        tied = merged.payload_sizes[merged.timestamps == 1.0]
        assert list(tied) == [10, 20, 30]

    def test_common_server_address_kept(self):
        merged = kway_merge_traces([make_trace([0.0]), make_trace([1.0])])
        assert merged.server_address == IPv4Address("10.0.0.2")

    def test_mixed_server_addresses_become_none(self):
        merged = kway_merge_traces(
            [make_trace([0.0], server="10.0.0.2"), make_trace([1.0], server="10.0.0.9")]
        )
        assert merged.server_address is None

    def test_empty_inputs_skipped(self):
        merged = kway_merge_traces([Trace.empty(), make_trace([0.0, 1.0]), Trace.empty()])
        assert len(merged) == 2
        assert merged.server_address == IPv4Address("10.0.0.2")

    def test_all_empty_returns_empty(self):
        assert len(kway_merge_traces([Trace.empty(), Trace.empty()])) == 0
        assert len(kway_merge_traces([])) == 0

    def test_overhead_taken_from_first_nonempty(self):
        overhead = OverheadModel(HeaderOverhead(link=0, network=20, transport=8))
        merged = kway_merge_traces(
            [Trace.empty(), make_trace([0.0], overhead=overhead), make_trace([1.0])]
        )
        assert merged.overhead.per_packet == overhead.per_packet


class TestTraceAccumulator:
    def test_bounded_fanin_equals_flat_merge(self):
        # more than two collapses plus a partial buffer: equal timestamps
        # across traces must keep feed order through every merge
        n = 2 * FANIN + 3
        traces = [
            make_trace([0.05 * i, 1.0, 2.0 + 0.05 * i], payload=10 + i)
            for i in range(n)
        ]
        flat = kway_merge_traces(traces)
        accumulator = TraceAccumulator()
        for trace in traces:
            accumulator.add(trace)
        chunked = accumulator.result()
        for name in _COLUMNS:
            assert np.array_equal(getattr(flat, name), getattr(chunked, name))
        assert accumulator.servers_added == n

    def test_result_is_idempotent(self):
        accumulator = TraceAccumulator()
        accumulator.add(make_trace([0.0]))
        assert len(accumulator.result()) == len(accumulator.result()) == 1

    def test_rejects_empty_result(self):
        with pytest.raises(ValueError):
            TraceAccumulator().result()
