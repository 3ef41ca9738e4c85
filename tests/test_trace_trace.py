"""Unit tests for the columnar Trace container and TraceBuilder."""

import numpy as np
import pytest

from repro.net.addresses import IPv4Address
from repro.net.headers import HeaderOverhead, OverheadModel
from repro.trace.packet import Direction, PacketRecord
from repro.trace.trace import _COLUMNS, Trace, TraceBuilder

SERVER = IPv4Address("10.0.0.2")
CLIENT = IPv4Address("10.0.0.1")


def make_record(t, direction=Direction.IN, size=40):
    if direction is Direction.IN:
        return PacketRecord(t, direction, CLIENT, SERVER, 27005, 27015, size)
    return PacketRecord(t, direction, SERVER, CLIENT, 27015, 27005, size)


class TestPacketRecord:
    def test_flow_key_same_both_directions(self):
        incoming = make_record(0.0, Direction.IN)
        outgoing = make_record(0.1, Direction.OUT)
        assert incoming.flow_key() == outgoing.flow_key()

    def test_client_address(self):
        assert make_record(0.0, Direction.IN).client_address == CLIENT
        assert make_record(0.0, Direction.OUT).client_address == CLIENT

    def test_wire_size(self):
        record = make_record(0.0, size=40)
        assert record.wire_size(OverheadModel()) == 94

    def test_validation(self):
        with pytest.raises(ValueError):
            make_record(-1.0)
        with pytest.raises(ValueError):
            make_record(0.0, size=-1)
        with pytest.raises(ValueError):
            PacketRecord(0.0, Direction.IN, CLIENT, SERVER, 70000, 1, 10)

    def test_direction_opposite(self):
        assert Direction.IN.opposite is Direction.OUT
        assert Direction.OUT.opposite is Direction.IN


class TestTraceConstruction:
    def test_from_records_roundtrip(self):
        records = [make_record(0.1 * i) for i in range(5)]
        trace = Trace.from_records(records, server_address=SERVER)
        assert len(trace) == 5
        assert trace.record(2).timestamp == pytest.approx(0.2)

    def test_empty_trace(self):
        trace = Trace.empty(server_address=SERVER)
        assert len(trace) == 0
        assert trace.duration == 0.0
        assert trace.total_payload_bytes == 0

    def test_builder_sorts_interleaved_batches(self):
        builder = TraceBuilder(server_address=SERVER)
        builder.add_batch(
            timestamps=np.asarray([0.3, 0.5]),
            directions=np.asarray([0, 0]),
            src_addrs=np.asarray([CLIENT.value] * 2),
            dst_addrs=np.asarray([SERVER.value] * 2),
            src_ports=np.asarray([1, 1]),
            dst_ports=np.asarray([2, 2]),
            payload_sizes=np.asarray([10, 20]),
        )
        builder.add(0.4, Direction.OUT, SERVER.value, CLIENT.value, 2, 1, 30)
        trace = builder.build()
        assert list(trace.timestamps) == pytest.approx([0.3, 0.4, 0.5])

    def test_builder_len_counts_both_paths(self):
        builder = TraceBuilder()
        builder.add(0.0, Direction.IN, 1, 2, 3, 4, 5)
        builder.add_batch(
            timestamps=np.asarray([1.0]),
            directions=np.asarray([1]),
            src_addrs=np.asarray([2]),
            dst_addrs=np.asarray([1]),
            src_ports=np.asarray([4]),
            dst_ports=np.asarray([3]),
            payload_sizes=np.asarray([6]),
        )
        assert len(builder) == 2

    def test_unsorted_constructor_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Trace(
                timestamps=np.asarray([1.0, 0.5]),
                directions=np.asarray([0, 0]),
                src_addrs=np.asarray([1, 1]),
                dst_addrs=np.asarray([2, 2]),
                src_ports=np.asarray([1, 1]),
                dst_ports=np.asarray([2, 2]),
                payload_sizes=np.asarray([10, 10]),
            )

    @pytest.mark.parametrize(
        "timestamps",
        [[0.0, 2.0, np.nan, 1.0], [0.0, np.nan, 1.0], [np.nan], [np.nan, np.nan], [1.0, np.nan]],
    )
    def test_nan_timestamp_rejected_as_out_of_order(self, timestamps):
        # a NaN compares false both ways, so a pairwise check passes it
        n = len(timestamps)
        with pytest.raises(ValueError, match="non-decreasing and not NaN"):
            Trace(
                timestamps=np.asarray(timestamps),
                directions=np.zeros(n),
                src_addrs=np.zeros(n),
                dst_addrs=np.zeros(n),
                src_ports=np.zeros(n),
                dst_ports=np.zeros(n),
                payload_sizes=np.zeros(n),
            )

    def test_infinite_and_repeated_timestamps_are_in_order(self):
        timestamps = np.asarray([-np.inf, 0.0, 0.0, np.inf, np.inf])
        trace = Trace(
            timestamps=timestamps,
            directions=np.zeros(5),
            src_addrs=np.zeros(5),
            dst_addrs=np.zeros(5),
            src_ports=np.zeros(5),
            dst_ports=np.zeros(5),
            payload_sizes=np.zeros(5),
        )
        assert len(trace.time_slice(0.0, 1.0)) == 2

    @pytest.mark.parametrize("sort", [True, False])
    def test_builder_rejects_nan_timestamp(self, sort):
        builder = TraceBuilder()
        for t in (0.0, np.nan, 1.0):
            builder.add_record(make_record(t))
        with pytest.raises(ValueError, match="NaN"):
            builder.build(sort=sort)

    def test_builder_of_an_empty_batch_is_empty(self):
        builder = TraceBuilder()
        empty = np.zeros(0)
        builder.add_batch(empty, empty, empty, empty, empty, empty, empty)
        assert len(builder.build()) == 0

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Trace(
                timestamps=np.asarray([0.0, 1.0]),
                directions=np.asarray([0]),
                src_addrs=np.asarray([1, 1]),
                dst_addrs=np.asarray([2, 2]),
                src_ports=np.asarray([1, 1]),
                dst_ports=np.asarray([2, 2]),
                payload_sizes=np.asarray([10, 10]),
            )

    def test_mismatched_batch_rejected(self):
        builder = TraceBuilder()
        with pytest.raises(ValueError, match="mismatch"):
            builder.add_batch(
                timestamps=np.asarray([0.0, 1.0]),
                directions=np.asarray([0]),
                src_addrs=np.asarray([1, 1]),
                dst_addrs=np.asarray([2, 2]),
                src_ports=np.asarray([1, 1]),
                dst_ports=np.asarray([2, 2]),
                payload_sizes=np.asarray([10, 10]),
            )


class TestTraceQueries:
    def test_directional_split(self, synthetic_trace):
        assert len(synthetic_trace.inbound()) == 10
        assert len(synthetic_trace.outbound()) == 5

    def test_byte_totals(self, synthetic_trace):
        assert synthetic_trace.total_payload_bytes == 10 * 40 + 5 * 130
        per_packet = synthetic_trace.overhead.per_packet
        assert (
            synthetic_trace.total_wire_bytes
            == synthetic_trace.total_payload_bytes + 15 * per_packet
        )

    def test_time_slice_half_open(self, synthetic_trace):
        # inbound at 0.0..0.9 step 0.1; slice [0.2, 0.5) keeps 0.2,0.3,0.4 (+out 0.25,0.45)
        window = synthetic_trace.time_slice(0.2, 0.5)
        assert np.all(window.timestamps >= 0.2)
        assert np.all(window.timestamps < 0.5)
        assert len(window) == 5

    def test_time_slice_inverted_raises(self, synthetic_trace):
        with pytest.raises(ValueError):
            synthetic_trace.time_slice(1.0, 0.0)

    def test_select_requires_bool_mask(self, synthetic_trace):
        with pytest.raises(ValueError):
            synthetic_trace.select(np.ones(len(synthetic_trace), dtype=int))

    def test_select_requires_matching_shape(self, synthetic_trace):
        with pytest.raises(ValueError):
            synthetic_trace.select(np.ones(len(synthetic_trace) + 1, dtype=bool))
        with pytest.raises(ValueError):
            synthetic_trace.select(np.ones((1, len(synthetic_trace)), dtype=bool))

    @pytest.mark.parametrize("kind", ["empty", "all", "single", "alternate"])
    def test_select_matches_boolean_indexing(self, synthetic_trace, kind):
        n = len(synthetic_trace)
        mask = {
            "empty": np.zeros(n, dtype=bool),
            "all": np.ones(n, dtype=bool),
            "single": np.arange(n) == 7,
            "alternate": np.arange(n) % 2 == 0,
        }[kind]
        selected = synthetic_trace.select(mask)
        assert len(selected) == int(mask.sum())
        for name in _COLUMNS:
            column = getattr(selected, name)
            original = getattr(synthetic_trace, name)
            assert column.dtype == original.dtype
            assert np.array_equal(column, original[mask])
        assert selected.server_address == synthetic_trace.server_address
        assert selected.overhead is synthetic_trace.overhead

    @pytest.mark.parametrize("keep", [True, False])
    def test_select_on_one_row_trace(self, keep):
        trace = Trace.from_records([make_record(0.5)], server_address=SERVER)
        selected = trace.select(np.array([keep]))
        assert len(selected) == int(keep)
        for name in _COLUMNS:
            assert getattr(selected, name).dtype == getattr(trace, name).dtype
        if keep:
            assert selected.record(0) == trace.record(0)

    def test_select_and_time_slice_copy_their_rows(self, synthetic_trace):
        for part in (
            synthetic_trace.select(np.ones(len(synthetic_trace), dtype=bool)),
            synthetic_trace.time_slice(0.2, 0.5),
        ):
            for name in _COLUMNS:
                assert not np.shares_memory(
                    getattr(part, name), getattr(synthetic_trace, name)
                )

    @pytest.mark.parametrize("bounds", [(0.2, 0.5), (-1.0, 9.0), (0.3, 0.3), (5.0, 6.0)])
    def test_time_slice_matches_mask(self, synthetic_trace, bounds):
        start, end = bounds
        window = synthetic_trace.time_slice(start, end)
        ts = synthetic_trace.timestamps
        mask = (ts >= start) & (ts < end)
        for name in _COLUMNS:
            column = getattr(window, name)
            assert column.dtype == getattr(synthetic_trace, name).dtype
            assert np.array_equal(column, getattr(synthetic_trace, name)[mask])

    def test_time_slice_copies_are_contiguous(self, synthetic_trace):
        window = synthetic_trace.time_slice(0.2, 0.5)
        for name in _COLUMNS:
            column = getattr(window, name)
            assert column.flags.c_contiguous and column.flags.owndata
            assert not np.shares_memory(column, getattr(synthetic_trace, name))

    def test_record_negative_index(self, synthetic_trace):
        last = synthetic_trace.record(-1)
        assert last.timestamp == pytest.approx(synthetic_trace.end_time)

    def test_record_out_of_range(self, synthetic_trace):
        with pytest.raises(IndexError):
            synthetic_trace.record(len(synthetic_trace))

    def test_iteration_yields_records(self, synthetic_trace):
        records = list(synthetic_trace)
        assert len(records) == len(synthetic_trace)
        assert all(isinstance(r, PacketRecord) for r in records)

    def test_wire_sizes_vector(self, synthetic_trace):
        wire = synthetic_trace.wire_sizes()
        assert wire.sum() == synthetic_trace.total_wire_bytes


class TestTraceMerge:
    def test_merge_interleaves_sorted(self):
        a = Trace.from_records([make_record(0.0), make_record(1.0)])
        b = Trace.from_records([make_record(0.5)])
        merged = a.merge(b)
        assert list(merged.timestamps) == pytest.approx([0.0, 0.5, 1.0])

    def test_merge_with_empty_identity(self, synthetic_trace):
        empty = Trace.empty()
        assert synthetic_trace.merge(empty) is synthetic_trace
        assert empty.merge(synthetic_trace) is synthetic_trace

    def test_merge_preserves_counts(self, synthetic_trace):
        doubled = synthetic_trace.merge(synthetic_trace)
        assert len(doubled) == 2 * len(synthetic_trace)
        assert doubled.total_payload_bytes == 2 * synthetic_trace.total_payload_bytes


class TestOverheadPropagation:
    def test_custom_overhead_used(self):
        model = OverheadModel(HeaderOverhead(link=0, network=20, transport=8))
        trace = Trace.from_records([make_record(0.0, size=100)], overhead=model)
        assert trace.total_wire_bytes == 128
