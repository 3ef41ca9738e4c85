"""Unit tests for the compact trace format and flow extraction."""

import numpy as np
import pytest

from repro.net.addresses import IPv4Address
from repro.trace.flows import extract_flows, flow_bandwidths
from repro.trace.format import TraceFormatError, load_trace, save_trace
from repro.trace.packet import Direction
from repro.trace.trace import Trace, TraceBuilder

SERVER = IPv4Address("10.0.0.2")


def two_client_trace():
    """Two clients: one 60 s steady flow, one 10 s short flow."""
    builder = TraceBuilder(server_address=SERVER)
    c1 = IPv4Address("10.1.0.1").value
    c2 = IPv4Address("10.1.0.2").value
    for i in range(61):
        builder.add(float(i), Direction.IN, c1, SERVER.value, 1111, 27015, 40)
        builder.add(float(i) + 0.5, Direction.OUT, SERVER.value, c1, 27015, 1111, 130)
    for i in range(11):
        builder.add(float(i), Direction.IN, c2, SERVER.value, 2222, 27015, 40)
    return builder.build()


class TestCompactFormat:
    def test_roundtrip(self, tmp_path, synthetic_trace):
        path = str(tmp_path / "trace.npz")
        save_trace(synthetic_trace, path)
        loaded = load_trace(path)
        assert len(loaded) == len(synthetic_trace)
        assert np.array_equal(loaded.payload_sizes, synthetic_trace.payload_sizes)
        assert np.allclose(loaded.timestamps, synthetic_trace.timestamps)
        assert loaded.server_address == synthetic_trace.server_address
        assert loaded.overhead.per_packet == synthetic_trace.overhead.per_packet

    @pytest.mark.parametrize("compressed", [True, False])
    def test_compression_modes(self, tmp_path, synthetic_trace, compressed):
        path = str(tmp_path / "trace.npz")
        save_trace(synthetic_trace, path, compressed=compressed)
        assert len(load_trace(path)) == len(synthetic_trace)

    def test_server_address_override(self, tmp_path, synthetic_trace):
        path = str(tmp_path / "trace.npz")
        save_trace(synthetic_trace, path)
        loaded = load_trace(path, server_address=IPv4Address("1.2.3.4"))
        assert loaded.server_address == IPv4Address("1.2.3.4")

    def test_missing_metadata_rejected(self, tmp_path, synthetic_trace):
        path = str(tmp_path / "bad.npz")
        np.savez(path, timestamps=synthetic_trace.timestamps)
        with pytest.raises(TraceFormatError, match="metadata"):
            load_trace(path)

    @pytest.mark.parametrize(
        "timestamps", [[0.0, 2.0, 1.0], [0.0, 2.0, np.nan, 3.0], [np.nan]]
    )
    def test_unordered_timestamps_rejected(self, tmp_path, timestamps):
        # every binary-search window over a loaded trace relies on the order
        n = len(timestamps)
        unordered = Trace(
            timestamps=np.asarray(timestamps),
            directions=np.zeros(n),
            src_addrs=np.zeros(n),
            dst_addrs=np.zeros(n),
            src_ports=np.zeros(n),
            dst_ports=np.zeros(n),
            payload_sizes=np.zeros(n),
            check_sorted=False,
        )
        path = str(tmp_path / "unordered.npz")
        save_trace(unordered, path)
        with pytest.raises(TraceFormatError, match="non-decreasing"):
            load_trace(path)

    def test_empty_trace_roundtrip(self, tmp_path):
        path = str(tmp_path / "empty.npz")
        save_trace(Trace.empty(server_address=SERVER), path)
        assert len(load_trace(path)) == 0


class TestFlows:
    def test_flow_count_and_ordering(self):
        flows = extract_flows(two_client_trace())
        assert len(flows) == 2
        assert flows[0].client == IPv4Address("10.1.0.1")

    def test_flow_stats(self):
        flows = extract_flows(two_client_trace())
        long_flow = flows[0]
        assert long_flow.packets_in == 61
        assert long_flow.packets_out == 61
        assert long_flow.payload_bytes_in == 61 * 40
        assert long_flow.payload_bytes_out == 61 * 130
        assert long_flow.duration == pytest.approx(60.5)

    def test_flow_bandwidth_math(self):
        flows = extract_flows(two_client_trace())
        flow = flows[0]
        expected = 8.0 * flow.wire_bytes / flow.duration
        assert flow.mean_bandwidth_bps == pytest.approx(expected)

    def test_min_duration_filter(self):
        bandwidths = flow_bandwidths(two_client_trace(), min_duration=30.0)
        assert bandwidths.size == 1  # the 10 s flow is excluded

    def test_zero_duration_flow_zero_bandwidth(self):
        builder = TraceBuilder(server_address=SERVER)
        builder.add(1.0, Direction.IN, 42, SERVER.value, 5, 27015, 40)
        flows = extract_flows(builder.build())
        assert flows[0].mean_bandwidth_bps == 0.0

    def test_empty_trace_no_flows(self):
        assert extract_flows(Trace.empty()) == []

    def test_same_client_different_ports_distinct_flows(self):
        builder = TraceBuilder(server_address=SERVER)
        addr = IPv4Address("10.1.0.9").value
        for i in range(40):
            builder.add(float(i), Direction.IN, addr, SERVER.value, 1000, 27015, 40)
            builder.add(float(i), Direction.IN, addr, SERVER.value, 2000, 27015, 40)
        flows = extract_flows(builder.build())
        assert len(flows) == 2
        assert {f.client_port for f in flows} == {1000, 2000}
