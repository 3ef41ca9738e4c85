"""Property-based tests (hypothesis) on codecs, formats and estimators."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.checksum import internet_checksum
from repro.net.ethernet import EthernetHeader
from repro.net.ip import IPv4Header
from repro.stats.binning import bin_events
from repro.stats.histogram import EmpiricalCDF, histogram
from repro.stats.hurst import variance_time_plot
from repro.stats.regression import fit_line
from repro.trace.packet import Direction
from repro.trace.pcap import read_pcap, write_pcap
from repro.trace.trace import TraceBuilder

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)
macs = st.integers(min_value=0, max_value=0xFFFFFFFFFFFF)
ports = st.integers(min_value=0, max_value=0xFFFF)
payload_sizes = st.integers(min_value=0, max_value=1400)


class TestCodecProperties:
    @given(value=addresses)
    def test_ipv4_string_roundtrip(self, value):
        addr = IPv4Address(value)
        assert IPv4Address(str(addr)) == addr
        assert IPv4Address(addr.packed) == addr

    @given(value=macs)
    def test_mac_roundtrip(self, value):
        mac = MACAddress(value)
        assert MACAddress(str(mac)) == mac
        assert MACAddress(mac.packed) == mac

    @given(data=st.binary(max_size=200))
    def test_checksum_self_verifies(self, data):
        checksum = internet_checksum(data)
        padded = data + b"\x00" if len(data) % 2 else data
        assert internet_checksum(padded + checksum.to_bytes(2, "big")) == 0

    @given(dst=macs, src=macs, ethertype=st.integers(0, 0xFFFF))
    def test_ethernet_roundtrip(self, dst, src, ethertype):
        header = EthernetHeader(MACAddress(dst), MACAddress(src), ethertype)
        assert EthernetHeader.unpack(header.pack()) == header

    @given(
        src=addresses,
        dst=addresses,
        total_length=st.integers(20, 0xFFFF),
        ttl=st.integers(0, 255),
        protocol=st.integers(0, 255),
        identification=st.integers(0, 0xFFFF),
    )
    def test_ipv4_roundtrip(self, src, dst, total_length, ttl, protocol,
                            identification):
        header = IPv4Header(
            src=IPv4Address(src),
            dst=IPv4Address(dst),
            total_length=total_length,
            ttl=ttl,
            protocol=protocol,
            identification=identification,
        )
        assert IPv4Header.unpack(header.pack()) == header


class TestPcapProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        packets=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
                st.sampled_from([Direction.IN, Direction.OUT]),
                payload_sizes,
                ports,
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_pcap_roundtrip_preserves_analysis_fields(self, packets):
        server = IPv4Address("10.0.0.2")
        client = IPv4Address("24.1.2.3")
        builder = TraceBuilder(server_address=server)
        for t, direction, size, port in sorted(packets, key=lambda p: p[0]):
            if direction is Direction.IN:
                builder.add(t, direction, client.value, server.value, port,
                            27015, size)
            else:
                builder.add(t, direction, server.value, client.value, 27015,
                            port, size)
        trace = builder.build()
        buffer = io.BytesIO()
        write_pcap(trace, buffer)
        buffer.seek(0)
        parsed = read_pcap(buffer, server_address=server)
        assert len(parsed) == len(trace)
        assert np.array_equal(parsed.payload_sizes, trace.payload_sizes)
        assert np.array_equal(parsed.directions, trace.directions)
        rebased = trace.timestamps - trace.timestamps[0]
        assert np.allclose(parsed.timestamps, rebased, atol=5e-6)


class TestStatsProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=0, max_size=200,
        ),
        bin_size=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    )
    def test_binning_conserves_events(self, times, bin_size):
        series = bin_events(np.asarray(times), bin_size, end_time=100.0 + bin_size)
        assert series.counts.sum() == len(times)

    @settings(max_examples=50, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=499.0, allow_nan=False),
            min_size=1, max_size=300,
        )
    )
    def test_histogram_mass_conserved_in_range(self, samples):
        hist = histogram(np.asarray(samples), 10.0, low=0.0, high=500.0)
        assert hist.probabilities.sum() == pytest.approx(1.0)
        assert hist.counts.sum() == len(samples)

    @settings(max_examples=50, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1, max_size=200,
        )
    )
    def test_cdf_monotone_and_bounded(self, samples):
        cdf = EmpiricalCDF.from_samples(np.asarray(samples))
        xs = np.linspace(min(samples) - 1, max(samples) + 1, 50)
        values = cdf(xs)
        assert np.all(np.diff(values) >= 0)
        assert values[0] >= 0.0 and values[-1] == 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            min_size=2, max_size=100,
        ),
        q=st.floats(min_value=0.01, max_value=1.0),
    )
    def test_quantile_consistent_with_cdf(self, samples, q):
        cdf = EmpiricalCDF.from_samples(np.asarray(samples))
        x = cdf.quantile(q)
        assert cdf(x) >= q - 1e-12

    @settings(max_examples=30, deadline=None)
    @given(
        slope=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        intercept=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    )
    def test_fit_line_recovers_exact_lines(self, slope, intercept):
        x = np.linspace(0.0, 10.0, 20)
        fit = fit_line(x, slope * x + intercept)
        assert fit.slope == pytest.approx(slope, abs=1e-6 + 1e-6 * abs(slope))
        assert fit.intercept == pytest.approx(
            intercept, abs=1e-5 + 1e-6 * abs(intercept)
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_variance_time_decays_for_iid(self, seed):
        series = np.random.default_rng(seed).poisson(5, 5000).astype(float)
        plot = variance_time_plot(series, 0.01)
        variances = [p.normalized_variance for p in plot.points]
        # iid aggregation decays overall; individual large-block estimates
        # are noisy (few blocks), so assert the global shape only
        assert variances[0] == pytest.approx(1.0)
        assert variances[-1] < 0.1 * variances[0]
        assert max(variances) <= 1.0 + 1e-9


class TestQueueProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        rate=st.floats(min_value=50.0, max_value=2000.0),
        wan_queue=st.integers(1, 40),
        seed=st.integers(0, 100),
    )
    def test_forwarding_conservation(self, rate, wan_queue, seed):
        from repro.router.device import DeviceProfile, ForwardingEngine

        rng = np.random.default_rng(seed)
        server = IPv4Address("10.0.0.2")
        builder = TraceBuilder(server_address=server)
        t = 0.0
        for _ in range(300):
            t += float(rng.exponential(1.0 / rate))
            builder.add(t, Direction.IN, 42, server.value, 1000, 27015, 40)
        trace = builder.build()
        profile = DeviceProfile(
            wan_queue=wan_queue,
            stall_interval_mean=1e9,
            freeze_threshold=10**6,
        )
        result = ForwardingEngine(profile, seed=seed).process(trace)
        assert result.inbound_forwarded + (result.fates == 0).sum() == 300
        mask = result.forwarded_mask()
        assert np.all(result.departures[mask] >= result.timestamps[mask])
