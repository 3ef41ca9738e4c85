"""The paper analyses that read only the rows and columns they use.

``NetworkUsage``, ``PacketSizeAnalysis``, ``PeriodicityAnalysis``,
``packet_load_series``/``interval_counts`` and the fluid gap mask each
once worked on full per-direction sub-traces (or searched once per
time); they now read one or two columns, or only the window's rows.
The former bodies are kept below as the reference, and every result
must equal theirs bit for bit.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.packetsize import FIGURE_TRUNCATION_BYTES, PacketSizeAnalysis
from repro.core.periodicity import PeriodicityAnalysis, _expected_duty
from repro.core.summary import NetworkUsage
from repro.core.timeseries import RateSeries, interval_counts, packet_load_series
from repro.gameserver.fluid import _times_open
from repro.stats.autocorr import burstiness_index, dominant_period, peak_to_mean_ratio
from repro.stats.binning import bin_events
from repro.stats.histogram import EmpiricalCDF, histogram
from repro.trace.packet import Direction
from repro.trace.trace import Trace

# ----------------------------------------------------------------------
# the former bodies, the reference
# ----------------------------------------------------------------------


def _wire_bytes(trace: Trace) -> int:
    return trace.overhead.wire_bytes_total(trace.total_payload_bytes, len(trace))


def reference_usage(trace: Trace, duration: float = 0.0) -> NetworkUsage:
    inbound = trace.inbound()
    outbound = trace.outbound()
    span = duration if duration > 0 else trace.duration
    if span <= 0:
        raise ValueError("cannot compute rates over a zero-length window")
    return NetworkUsage(
        duration=span,
        total_packets=len(trace),
        packets_in=len(inbound),
        packets_out=len(outbound),
        wire_bytes=_wire_bytes(trace),
        wire_bytes_in=_wire_bytes(inbound),
        wire_bytes_out=_wire_bytes(outbound),
        app_bytes=trace.total_payload_bytes,
        app_bytes_in=inbound.total_payload_bytes,
        app_bytes_out=outbound.total_payload_bytes,
    )


def reference_sizes(
    trace: Trace, bin_width: float = 10.0, truncate: float = FIGURE_TRUNCATION_BYTES
) -> PacketSizeAnalysis:
    if len(trace) == 0:
        raise ValueError("cannot analyse an empty trace")
    sizes = trace.payload_sizes.astype(float)
    inbound = trace.inbound().payload_sizes.astype(float)
    outbound = trace.outbound().payload_sizes.astype(float)
    if inbound.size == 0 or outbound.size == 0:
        raise ValueError("trace must contain packets in both directions")
    return PacketSizeAnalysis(
        total_pdf=histogram(sizes, bin_width, low=0.0, high=truncate),
        inbound_pdf=histogram(inbound, bin_width, low=0.0, high=truncate),
        outbound_pdf=histogram(outbound, bin_width, low=0.0, high=truncate),
        total_cdf=EmpiricalCDF.from_samples(sizes),
        inbound_cdf=EmpiricalCDF.from_samples(inbound),
        outbound_cdf=EmpiricalCDF.from_samples(outbound),
        mean_total=float(sizes.mean()),
        mean_in=float(inbound.mean()),
        mean_out=float(outbound.mean()),
    )


def reference_periodicity(trace: Trace, bin_size: float = 0.010) -> PeriodicityAnalysis:
    if len(trace) == 0:
        raise ValueError("cannot analyse an empty trace")
    start, end = trace.start_time, trace.end_time
    outbound = trace.outbound()
    inbound = trace.inbound()
    if len(outbound) < 10 or len(inbound) < 10:
        raise ValueError("window too small for periodicity analysis")
    out_counts = bin_events(
        outbound.timestamps, bin_size, start_time=start, end_time=end
    ).counts
    in_counts = bin_events(
        inbound.timestamps, bin_size, start_time=start, end_time=end
    ).counts
    period = dominant_period(out_counts, bin_size, max_period=0.5, min_period=2 * bin_size)
    threshold = out_counts.mean() * 0.5 / max(1e-9, _expected_duty(period, bin_size))
    return PeriodicityAnalysis(
        bin_size=bin_size,
        recovered_period_out=period,
        burstiness_out=burstiness_index(out_counts),
        burstiness_in=burstiness_index(in_counts),
        peak_to_mean_out=peak_to_mean_ratio(out_counts),
        peak_to_mean_in=peak_to_mean_ratio(in_counts),
        outbound_duty_cycle=float((out_counts >= threshold).mean()),
    )


def reference_load(
    trace: Trace,
    bin_size: float,
    direction: Optional[Direction] = None,
    start_time: Optional[float] = None,
    end_time: Optional[float] = None,
) -> RateSeries:
    if direction is None:
        sub, label = trace, "total"
    elif direction is Direction.IN:
        sub, label = trace.inbound(), "in"
    else:
        sub, label = trace.outbound(), "out"
    start = trace.start_time if start_time is None else start_time
    end = trace.end_time if end_time is None else end_time
    series = bin_events(
        sub.timestamps,
        bin_size,
        weights=sub.wire_sizes().astype(float),
        start_time=start,
        end_time=end,
    )
    return RateSeries(label=label, series=series)


def reference_intervals(
    trace: Trace,
    bin_size: float,
    n_intervals: int,
    direction: Optional[Direction] = None,
    start_time: Optional[float] = None,
) -> np.ndarray:
    start = trace.start_time if start_time is None else start_time
    end = start + bin_size * n_intervals
    if end > trace.end_time + bin_size:
        raise ValueError("trace ends before the requested intervals")
    series = reference_load(
        trace, bin_size, direction=direction, start_time=start, end_time=end
    )
    return series.packets_per_second[:n_intervals]


def reference_times_open(times: np.ndarray, gaps) -> np.ndarray:
    """The former per-time search: the last gap starting at or before t."""
    if not gaps or times.size == 0:
        return np.ones(times.shape, dtype=bool)
    starts = np.asarray([g[0] for g in gaps])
    ends = np.asarray([g[1] for g in gaps])
    index = np.searchsorted(starts, times, side="right") - 1
    open_mask = np.ones(times.shape, dtype=bool)
    valid = index >= 0
    open_mask[valid] = times[valid] >= ends[index[valid]]
    return open_mask


# ----------------------------------------------------------------------
# helpers and strategies
# ----------------------------------------------------------------------


def make_trace(timestamps, directions, sizes) -> Trace:
    n = len(timestamps)
    zeros = np.zeros(n)
    return Trace(
        timestamps=np.asarray(timestamps, dtype=float),
        directions=np.asarray(directions),
        src_addrs=zeros,
        dst_addrs=zeros,
        src_ports=zeros,
        dst_ports=zeros,
        payload_sizes=np.asarray(sizes),
    )


def assert_bitwise(actual, expected) -> None:
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_same_series(actual: RateSeries, expected: RateSeries) -> None:
    assert actual.label == expected.label
    assert actual.series.bin_size == expected.series.bin_size
    assert actual.series.start_time == expected.series.start_time
    assert_bitwise(actual.series.counts, expected.series.counts)
    assert_bitwise(actual.series.weights, expected.series.weights)


def outcome(function, *args, **kwargs):
    """``function``'s result, or the type of the exception it raised."""
    try:
        return function(*args, **kwargs)
    except (ValueError, IndexError, ArithmeticError) as error:
        return type(error)


#: Times on a 5 ms grid land exactly on bin edges, on ``start`` and on
#: ``end_time``; the odd offsets land anywhere.
grid_times = st.integers(0, 400).map(lambda k: k * 0.005)
any_times = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def traces(draw, min_size=0, directions=st.sampled_from([0, 1])):
    n = draw(st.integers(min_size, 60))
    times = sorted(draw(st.lists(st.one_of(grid_times, any_times), min_size=n, max_size=n)))
    dirs = draw(st.lists(directions, min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(0, 1400), min_size=n, max_size=n))
    return make_trace(times, dirs, sizes)


bin_sizes = st.sampled_from([0.005, 0.01, 0.03, 0.05, 0.1, 0.25, 1.0])
window_edges = st.one_of(st.none(), grid_times, any_times, st.floats(2.0, 5.0))
directions_or_total = st.sampled_from([None, Direction.IN, Direction.OUT])


# ----------------------------------------------------------------------
# NetworkUsage (Tables II and III)
# ----------------------------------------------------------------------


class TestNetworkUsage:
    @settings(max_examples=150, deadline=None)
    @given(trace=traces(), duration=st.sampled_from([0.0, 0.5, 3600.0]))
    def test_matches_sub_trace_body(self, trace, duration):
        assert repr(outcome(NetworkUsage.from_trace, trace, duration)) == repr(
            outcome(reference_usage, trace, duration)
        )

    @settings(max_examples=100, deadline=None)
    @given(trace=traces(min_size=1))
    def test_directions_conserve_packets_and_bytes(self, trace):
        usage = NetworkUsage.from_trace(trace, duration=1.0)
        assert usage.packets_in + usage.packets_out == usage.total_packets
        assert usage.app_bytes_in + usage.app_bytes_out == usage.app_bytes
        assert usage.wire_bytes_in + usage.wire_bytes_out == usage.wire_bytes

    def test_empty_direction(self):
        trace = make_trace([0.0, 0.5, 1.0], [1, 1, 1], [100, 200, 300])
        usage = NetworkUsage.from_trace(trace)
        assert usage == reference_usage(trace)
        assert (usage.packets_in, usage.app_bytes_in, usage.wire_bytes_in) == (0, 0, 0)
        assert usage.mean_packet_size_in == 0.0

    def test_sums_do_not_wrap_at_32_bits(self):
        big = np.full(4, 2**31, dtype=np.uint32)
        trace = make_trace([0.0, 1.0, 2.0, 3.0], [0, 1, 0, 1], big)
        usage = NetworkUsage.from_trace(trace)
        assert usage.app_bytes_in == usage.app_bytes_out == 2**32
        assert usage == reference_usage(trace)


# ----------------------------------------------------------------------
# PacketSizeAnalysis (Figs 12 and 13)
# ----------------------------------------------------------------------


def assert_same_sizes(actual: PacketSizeAnalysis, expected: PacketSizeAnalysis) -> None:
    for name in ("total", "inbound", "outbound"):
        pdf, ref = getattr(actual, f"{name}_pdf"), getattr(expected, f"{name}_pdf")
        assert_bitwise(pdf.bin_edges, ref.bin_edges)
        assert_bitwise(pdf.counts, ref.counts)
        assert pdf.total_samples == ref.total_samples
        assert_bitwise(
            getattr(actual, f"{name}_cdf").sorted_samples,
            getattr(expected, f"{name}_cdf").sorted_samples,
        )
    for name in ("mean_total", "mean_in", "mean_out"):
        assert repr(getattr(actual, name)) == repr(getattr(expected, name))


class TestPacketSizeAnalysis:
    @settings(max_examples=150, deadline=None)
    @given(
        trace=traces(),
        bin_width=st.sampled_from([1.0, 7.3, 10.0, 64.0]),
        truncate=st.sampled_from([100.0, 500.0, 1400.0]),
    )
    @example(  # a size exactly at the truncation lands in the last bin
        trace=make_trace([0.0, 1.0, 2.0], [0, 1, 1], [500, 0, 499]),
        bin_width=10.0,
        truncate=500.0,
    )
    def test_matches_sub_trace_body(self, trace, bin_width, truncate):
        expected = outcome(reference_sizes, trace, bin_width, truncate)
        actual = outcome(PacketSizeAnalysis.from_trace, trace, bin_width, truncate)
        if isinstance(expected, type):
            assert actual is expected
        else:
            assert_same_sizes(actual, expected)

    def test_empty_direction_rejected_as_before(self):
        trace = make_trace([0.0, 1.0], [0, 0], [40, 41])
        with pytest.raises(ValueError, match="both directions"):
            PacketSizeAnalysis.from_trace(trace)


class TestCdfHistogram:
    @settings(max_examples=150, deadline=None)
    @given(
        samples=st.lists(
            st.one_of(
                st.integers(-20, 600).map(float),
                st.floats(-50.0, 700.0, allow_nan=False),
            ),
            min_size=1,
            max_size=80,
        ),
        bin_width=st.sampled_from([0.5, 3.0, 10.0, 33.3]),
        low=st.sampled_from([0.0, -10.0, 5.0]),
        high=st.sampled_from([None, 100.0, 500.0]),
    )
    def test_matches_np_histogram(self, samples, bin_width, low, high):
        samples = np.asarray(samples)
        expected = outcome(histogram, samples, bin_width, low=low, high=high)
        actual = outcome(
            EmpiricalCDF.from_samples(samples).histogram, bin_width, low=low, high=high
        )
        if isinstance(expected, type):
            assert actual is expected
        else:
            assert_bitwise(actual.bin_edges, expected.bin_edges)
            assert_bitwise(actual.counts, expected.counts)
            assert actual.total_samples == expected.total_samples


# ----------------------------------------------------------------------
# PeriodicityAnalysis (Fig 6)
# ----------------------------------------------------------------------


class TestPeriodicityAnalysis:
    def test_matches_sub_trace_body_on_a_generated_window(self, quick_trace):
        window = quick_trace.time_slice(30.0, 90.0)
        assert repr(PeriodicityAnalysis.from_trace(window)) == repr(reference_periodicity(window))

    @settings(max_examples=60, deadline=None)
    @given(trace=traces(min_size=20))
    def test_matches_sub_trace_body(self, trace):
        # repr compares floats bit for bit, a NaN included
        assert repr(outcome(PeriodicityAnalysis.from_trace, trace)) == repr(
            outcome(reference_periodicity, trace)
        )


# ----------------------------------------------------------------------
# packet_load_series and interval_counts (Figs 6-8)
# ----------------------------------------------------------------------


class TestPacketLoadSeries:
    @settings(max_examples=200, deadline=None)
    @given(
        trace=traces(),
        bin_size=bin_sizes,
        direction=directions_or_total,
        start=window_edges,
        end=window_edges,
    )
    def test_matches_sub_trace_body(self, trace, bin_size, direction, start, end):
        expected = outcome(reference_load, trace, bin_size, direction, start, end)
        actual = outcome(packet_load_series, trace, bin_size, direction, start, end)
        if isinstance(expected, type):
            assert actual is expected
        else:
            assert_same_series(actual, expected)

    @pytest.mark.parametrize("direction", [None, Direction.IN, Direction.OUT])
    def test_events_at_start_end_and_in_the_rounded_up_last_bin(self, direction):
        # end_time 0.875 with 0.25 s bins from 0.25 gives three bins, the
        # last one rounded up to 1.0: the events at 0.875 (= end_time) and
        # 0.9375 (past end_time, inside the last bin) count, 0.125 and
        # 1.0 do not (binary fractions, so no rounding blurs the edges)
        times = [0.125, 0.25, 0.25, 0.5, 0.875, 0.9375, 1.0, 1.25]
        trace = make_trace(times, [0, 1, 0, 1, 0, 1, 0, 1], [10, 20, 30, 40, 50, 60, 70, 80])
        series = packet_load_series(trace, 0.25, direction, start_time=0.25, end_time=0.875)
        assert_same_series(
            series, reference_load(trace, 0.25, direction, start_time=0.25, end_time=0.875)
        )
        expected = {
            None: [2.0, 1.0, 2.0], Direction.IN: [1.0, 0.0, 1.0], Direction.OUT: [1.0, 1.0, 1.0]
        }
        assert series.series.counts.tolist() == expected[direction]

    def test_event_at_end_time_lands_in_the_last_bin(self):
        trace = make_trace([0.0, 0.1, 0.2], [0, 1, 0], [1, 2, 3])
        series = packet_load_series(trace, 0.1, start_time=0.0, end_time=0.2)
        assert series.series.counts.tolist() == [1.0, 2.0]
        assert_same_series(series, reference_load(trace, 0.1, None, 0.0, 0.2))

    @pytest.mark.parametrize("direction", [Direction.IN, Direction.OUT])
    def test_empty_direction(self, direction):
        code = 1 if direction is Direction.IN else 0
        trace = make_trace([0.0, 0.1, 0.2], [code] * 3, [1, 2, 3])
        series = packet_load_series(trace, 0.05, direction)
        assert not series.series.counts.any()
        assert_same_series(series, reference_load(trace, 0.05, direction))

    def test_event_just_before_start_that_bins_to_zero(self):
        # (t - start) / bin_size underflows to -0.0, which floors into
        # bin 0: the row search starts a bin early so that row is read
        trace = make_trace([-5e-324, 1.0], [0, 0], [1, 2])
        series = packet_load_series(trace, 10.0, start_time=0.0, end_time=5.0)
        assert series.series.counts.tolist() == [2.0]
        assert_same_series(series, reference_load(trace, 10.0, None, 0.0, 5.0))

    def test_window_past_the_trace_end(self):
        trace = make_trace([0.0, 0.1, 0.2], [0, 1, 0], [1, 2, 3])
        series = packet_load_series(trace, 0.1, start_time=5.0, end_time=6.0)
        assert series.series.counts.tolist() == [0.0] * 10
        assert_same_series(series, reference_load(trace, 0.1, None, 5.0, 6.0))

    def test_reads_a_generated_window_like_the_sub_trace(self, quick_trace):
        for direction in (None, Direction.IN, Direction.OUT):
            for bin_size in (0.01, 0.05, 1.0):
                assert_same_series(
                    packet_load_series(quick_trace, bin_size, direction, 30.0, 32.0),
                    reference_load(quick_trace, bin_size, direction, 30.0, 32.0),
                )


class TestIntervalCounts:
    @settings(max_examples=200, deadline=None)
    @given(
        trace=traces(),
        bin_size=bin_sizes,
        n_intervals=st.integers(1, 40),
        direction=directions_or_total,
        start=st.one_of(st.none(), grid_times, any_times),
    )
    def test_matches_sub_trace_body(self, trace, bin_size, n_intervals, direction, start):
        expected = outcome(reference_intervals, trace, bin_size, n_intervals, direction, start)
        actual = outcome(interval_counts, trace, bin_size, n_intervals, direction, start)
        if isinstance(expected, type):
            assert actual is expected
        else:
            assert_bitwise(actual, expected)

    def test_generated_window(self, quick_trace):
        for direction in (None, Direction.IN, Direction.OUT):
            assert_bitwise(
                interval_counts(quick_trace, 0.01, 200, direction, start_time=60.0),
                reference_intervals(quick_trace, 0.01, 200, direction, start_time=60.0),
            )


# ----------------------------------------------------------------------
# the fluid generator's gap mask (Fig 5)
# ----------------------------------------------------------------------


@st.composite
def gap_lists(draw):
    """Sorted gaps with overlapping, nested, equal-start and touching members."""
    starts = draw(st.lists(st.integers(0, 40), max_size=12))
    lengths = draw(st.lists(st.integers(0, 15), min_size=len(starts), max_size=len(starts)))
    return sorted((s * 0.5, s * 0.5 + d * 0.5) for s, d in zip(starts, lengths))


class TestTimesOpen:
    @settings(max_examples=300, deadline=None)
    @given(
        gaps=gap_lists(),
        first=st.sampled_from([-3.0, 0.0, 0.25, 4.5]),
        step=st.sampled_from([0.05, 0.25, 0.5, 1.0, 3.0]),
        n=st.integers(0, 120),
    )
    def test_matches_per_time_search(self, gaps, first, step, n):
        times = first + step * np.arange(n)
        assert_bitwise(_times_open(times, gaps), reference_times_open(times, gaps))

    @pytest.mark.parametrize(
        "gaps",
        [
            [(1.0, 3.0), (2.0, 5.0)],  # overlapping
            [(1.0, 8.0), (2.0, 3.0)],  # nested: the inner gap ends the closure
            [(2.0, 3.0), (2.0, 6.0)],  # equal starts: the last one counts
            [(2.0, 6.0), (2.0, 3.0)],
            [(1.0, 2.0), (2.0, 4.0)],  # touching
            [(3.0, 3.0)],  # empty
        ],
    )
    def test_edge_shapes(self, gaps):
        times = np.arange(0.0, 10.0, 0.5)
        assert_bitwise(_times_open(times, gaps), reference_times_open(times, gaps))

    def test_nested_gap_rule(self):
        times = np.arange(0.0, 10.0, 1.0)
        mask = _times_open(times, [(1.0, 8.0), (2.0, 3.0)])
        assert np.flatnonzero(~mask).tolist() == [1, 2]
