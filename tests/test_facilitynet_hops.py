"""Unit tests for the reusable hop engines (pps kernel, bps tail-drop)."""

import numpy as np
import pytest

from repro.facilitynet.hops import bps_hop, pps_hop
from repro.kernels import FreezePolicy, fifo_forward, tail_drop_link
from repro.kernels import taildrop
from repro.net.addresses import IPv4Address
from repro.trace.packet import Direction
from repro.trace.trace import Trace, TraceBuilder

SERVER = IPv4Address("10.0.0.2")
CLIENT = IPv4Address("24.0.0.1")


def poisson_trace(rate=500.0, duration=10.0, seed=3, payload=120):
    rng = np.random.default_rng(seed)
    builder = TraceBuilder(server_address=SERVER)
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= duration:
            break
        builder.add(t, Direction.OUT, SERVER.value, CLIENT.value,
                    27015, 1000, payload)
    return builder.build()


def _add_at_series(traversal, start, end, bin_size):
    """``HopTraversal.series``'s columns as ``np.add.at`` sums (the oracle)."""
    nbins = int(np.ceil((end - start) / bin_size))
    index = ((traversal.ingress.timestamps - start) / bin_size).astype(np.int64)
    index = np.clip(index, 0, nbins - 1)
    payload = traversal.ingress.payload_sizes.astype(np.float64)
    forwarded = traversal.fates == 1

    def binned(values, mask=None):
        out = np.zeros(nbins)
        if mask is None:
            np.add.at(out, index, values)
        else:
            np.add.at(out, index[mask], values[mask])
        return out

    return {
        "in_counts": binned(np.ones(traversal.offered)),
        "out_counts": binned(np.ones(traversal.offered), forwarded),
        "in_bytes": binned(payload),
        "out_bytes": binned(payload, forwarded),
    }


class TestFifoForwardKernel:
    def test_empty_stream(self):
        result = fifo_forward(np.empty(0), np.empty(0), primary_queue=4)
        assert result.fates.size == 0
        assert result.freeze_windows == []

    def test_light_load_all_forwarded(self):
        t = np.arange(100) * 0.01
        service = np.full(100, 0.001)
        result = fifo_forward(t, service, primary_queue=4)
        assert np.all(result.fates == 1)
        assert np.all(result.departures >= t)
        assert np.all(np.diff(result.departures) >= 0)

    def test_queue_overflow_drops(self):
        # 50 simultaneous arrivals against a queue of 8: exactly 8 admitted
        t = np.zeros(50)
        service = np.full(50, 1.0)
        result = fifo_forward(t, service, primary_queue=8)
        assert int((result.fates == 1).sum()) == 8
        assert int((result.fates == 0).sum()) == 42

    def test_blackout_drops_primary(self):
        t = np.arange(100) * 0.01
        service = np.full(100, 1e-4)
        result = fifo_forward(
            t, service, primary_queue=64, blackouts=[(0.25, 0.50)]
        )
        dropped = t[result.fates == 0]
        assert dropped.size > 0
        assert np.all((dropped >= 0.25) & (dropped < 0.50))

    def test_freeze_suppresses_secondary(self):
        # all primaries dropped by a blackout; the freeze policy must
        # then suppress secondaries inside the freeze window
        t = np.arange(200) * 0.01
        primary = np.arange(200) % 2 == 0
        service = np.full(200, 1e-4)
        result = fifo_forward(
            t,
            service,
            primary_mask=primary,
            primary_queue=64,
            secondary_queue=64,
            blackouts=[(0.0, 1.0)],
            freeze=FreezePolicy(threshold=5, window=0.5, duration=0.3, lag=0.0),
        )
        assert len(result.freeze_windows) > 0
        assert int((result.fates == -1).sum()) > 0

    def test_validates_queue_capacity(self):
        with pytest.raises(ValueError):
            fifo_forward(np.zeros(1), np.ones(1), primary_queue=0)

    def test_freeze_policy_validation(self):
        with pytest.raises(ValueError):
            FreezePolicy(threshold=0, window=0.5, duration=0.1, lag=0.0)
        with pytest.raises(ValueError):
            FreezePolicy(threshold=1, window=-1.0, duration=0.1, lag=0.0)


class TestTailDropLink:
    def test_light_load_no_loss(self):
        t = np.arange(1000) * 0.01
        sizes = np.full(1000, 100.0)
        # 100 B / 10 ms = 80 kbps offered against a 1 Mbps link
        fates, departures = tail_drop_link(t, sizes, 1e6, 10_000)
        assert np.all(fates == 1)
        # each packet transmits alone: delay = 100 B / 125 kB/s = 0.8 ms
        np.testing.assert_allclose(departures - t, 8e-4)

    def test_overload_sheds_expected_fraction(self):
        t = np.arange(20000) * 0.001
        sizes = np.full(20000, 250.0)
        # offered 2 Mbps against 1 Mbps: about half the packets must die
        fates, _ = tail_drop_link(t, sizes, 1e6, 4_000)
        loss = 1.0 - fates.mean()
        assert loss == pytest.approx(0.5, abs=0.05)

    def test_forwarded_rate_capped_at_line_rate(self):
        rng = np.random.default_rng(11)
        t = np.sort(rng.uniform(0.0, 10.0, size=30000))
        sizes = np.full(30000, 200.0)
        rate = 2e6
        fates, departures = tail_drop_link(t, sizes, rate, 8_000)
        carried_bits = 8.0 * 200.0 * int((fates == 1).sum())
        span = float(np.nanmax(departures) - t[0])
        assert carried_bits / span <= rate * 1.05

    def test_bigger_buffer_never_more_loss(self):
        rng = np.random.default_rng(5)
        t = np.sort(rng.uniform(0.0, 5.0, size=8000))
        sizes = rng.integers(60, 1400, size=8000).astype(float)
        losses = []
        for buffer_bytes in (2_000, 8_000, 64_000):
            fates, _ = tail_drop_link(t, sizes, 2e6, buffer_bytes)
            losses.append(1.0 - fates.mean())
        assert losses[0] >= losses[1] >= losses[2]

    def test_departures_fifo_monotone(self):
        rng = np.random.default_rng(9)
        t = np.sort(rng.uniform(0.0, 2.0, size=5000))
        sizes = rng.integers(60, 1400, size=5000).astype(float)
        _, departures = tail_drop_link(t, sizes, 1.5e6, 6_000)
        kept = departures[~np.isnan(departures)]
        assert np.all(np.diff(kept) >= -1e-9)

    @pytest.mark.parametrize("buffer_bytes", [1e12, 6_000.0])
    def test_vectorised_fast_path_matches_scalar(self, buffer_bytes):
        """Chunked fast-path output equals the pure scalar recursion."""
        rng = np.random.default_rng(21)
        n = 6000
        t = np.sort(rng.uniform(0.0, 4.0, size=n))
        sizes = rng.integers(60, 1400, size=n).astype(float)
        fates, departures = tail_drop_link(t, sizes, 5e6, buffer_bytes)

        ref_fates = np.ones(n, dtype=np.int8)
        ref_departures = np.full(n, np.nan)
        taildrop._scalar_tail_drop(
            t, sizes, 5e6 / 8.0, buffer_bytes, ref_fates, ref_departures,
            0, n, 0.0, float(t[0]),
        )
        assert np.array_equal(fates, ref_fates)
        np.testing.assert_allclose(departures, ref_departures, rtol=1e-9)

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            tail_drop_link(np.zeros(1), np.ones(1), 0.0, 100.0)
        with pytest.raises(ValueError):
            tail_drop_link(np.zeros(1), np.ones(1), 1e6, 0.0)

    def test_empty(self):
        fates, departures = tail_drop_link(np.empty(0), np.empty(0), 1e6, 100.0)
        assert fates.size == 0 and departures.size == 0


class TestTraceHops:
    def test_pps_hop_conserves_and_reports(self):
        trace = poisson_trace(rate=800.0)
        traversal = pps_hop(trace, pps_capacity=500.0, queue_packets=16)
        assert traversal.offered == len(trace)
        assert traversal.forwarded + traversal.dropped == traversal.offered
        assert traversal.dropped > 0  # sustained overload must shed
        assert traversal.loss_rate == pytest.approx(
            traversal.dropped / traversal.offered
        )
        assert np.all(traversal.delays() > 0)

    def test_pps_hop_jitter_is_seeded(self):
        trace = poisson_trace(rate=600.0)
        a = pps_hop(trace, 700.0, 16, service_cv=0.3, seed=5)
        b = pps_hop(trace, 700.0, 16, service_cv=0.3, seed=5)
        c = pps_hop(trace, 700.0, 16, service_cv=0.3, seed=6)
        assert np.array_equal(a.departures, b.departures, equal_nan=True)
        assert not np.array_equal(a.departures, c.departures, equal_nan=True)

    def test_egress_retimestamps_and_sorts(self):
        trace = poisson_trace(rate=900.0)
        traversal = pps_hop(trace, 600.0, 8)
        egress = traversal.egress()
        assert len(egress) == traversal.forwarded
        assert np.all(np.diff(egress.timestamps) >= 0)
        assert egress.total_payload_bytes <= trace.total_payload_bytes
        assert egress.overhead is trace.overhead

    def test_series_accounts_offered_and_carried(self):
        trace = poisson_trace(rate=900.0, duration=5.0)
        traversal = pps_hop(trace, 600.0, 8)
        series = traversal.series(0.0, 6.0)
        assert float(series.in_counts.sum()) == traversal.offered
        assert float(series.out_counts.sum()) == traversal.forwarded
        drops = series.in_counts - series.out_counts
        assert float(drops.sum()) == traversal.dropped
        assert np.all(drops >= 0)

    @pytest.mark.parametrize("bin_size", [0.25, 1.0, 0.7])
    def test_series_bit_identical_to_add_at_binning(self, bin_size):
        # mixed payloads, a lossy hop, and packets before `start` and
        # past `end` that clip into the first and last bins
        rng = np.random.default_rng(41)
        builder = TraceBuilder(server_address=SERVER)
        for t in np.sort(rng.uniform(0.0, 8.0, 4000)):
            builder.add(float(t), Direction.OUT, SERVER.value, CLIENT.value,
                        27015, 1000, int(rng.integers(0, 1400)))
        traversal = bps_hop(builder.build(), rate_bps=2e6, buffer_bytes=20_000)
        assert traversal.dropped > 0
        series = traversal.series(1.0, 7.0, bin_size)
        reference = _add_at_series(traversal, 1.0, 7.0, bin_size)
        for column in ("in_counts", "out_counts", "in_bytes", "out_bytes"):
            got, want = getattr(series, column), reference[column]
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_bps_hop_uses_wire_sizes(self):
        trace = poisson_trace(rate=200.0, duration=5.0, payload=0)
        # zero payload still costs wire overhead: a link sized below the
        # overhead-only load must drop
        wire_bps = trace.overhead.per_packet * 8.0 * 200.0
        clean = bps_hop(trace, rate_bps=wire_bps * 2.0, buffer_bytes=5_000)
        choked = bps_hop(trace, rate_bps=wire_bps * 0.5, buffer_bytes=500)
        assert clean.dropped == 0
        assert choked.dropped > 0

    def test_empty_trace(self):
        traversal = pps_hop(Trace.empty(server_address=SERVER), 100.0, 4)
        assert traversal.offered == 0
        assert traversal.delays().size == 0
