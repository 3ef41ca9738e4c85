"""Unit tests for the buffering/capacity ablations and aggregation workloads."""

import numpy as np
import pytest
from helpers import quick_test_profile

from repro.net.addresses import IPv4Address
from repro.router.ablation import (
    DEVICE_DELAY_BUDGET_S,
    buffer_sweep,
    buffering_helps_loss_but_not_experience,
    capacity_sweep,
)
from repro.router.device import DeviceProfile
from repro.trace.packet import Direction
from repro.trace.trace import TraceBuilder
from repro.workloads.aggregation import (
    aggregate_servers,
    offered_pps,
    required_capacity_linear,
)
from repro.workloads.scenarios import Scenario

SERVER = IPv4Address("10.0.0.2")


def bursty_trace(duration=20.0, burst=20, in_rate=450.0, seed=0):
    """Tick bursts + Poisson inbound, the §IV workload shape."""
    rng = np.random.default_rng(seed)
    builder = TraceBuilder(server_address=SERVER)
    t = 0.0
    while t < duration:
        t += float(rng.exponential(1.0 / in_rate))
        if t < duration:
            builder.add(t, Direction.IN, 42, SERVER.value, 1000, 27015, 40)
    for tick in np.arange(0.05, duration, 0.05):
        for j in range(burst):
            builder.add(tick + 2e-4 * j, Direction.OUT, SERVER.value, 43,
                        27015, 1000, 130)
    return builder.build()


class TestBufferSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        trace = bursty_trace()
        # a loaded device: offered ~850 pps vs 900 pps engine
        profile = DeviceProfile(lookup_rate=900.0)
        return buffer_sweep(trace, queue_depths=(4, 16, 64, 256),
                            base_profile=profile, seed=1)

    def test_loss_monotone_down(self, sweep):
        losses = [p.inbound_loss + p.outbound_loss for p in sweep]
        assert losses[-1] < losses[0]

    def test_delay_monotone_up(self, sweep):
        delays = [p.p99_delay for p in sweep]
        assert delays[-1] > delays[0]

    def test_paper_verdict_on_loaded_device(self, sweep):
        assert buffering_helps_loss_but_not_experience(sweep)

    def test_budget_constant_sane(self):
        assert 0.0 < DEVICE_DELAY_BUDGET_S < 0.1

    def test_validation(self):
        trace = bursty_trace(duration=2.0)
        with pytest.raises(ValueError):
            buffer_sweep(trace, queue_depths=(0,))
        with pytest.raises(ValueError):
            buffering_helps_loss_but_not_experience(
                buffer_sweep(trace, queue_depths=(4,))
            )


class TestCapacitySweep:
    def test_loss_collapses_with_capacity(self):
        trace = bursty_trace()
        points = capacity_sweep(
            trace, lookup_rates=(600.0, 1250.0, 5000.0), seed=1
        )
        assert points[0].total_loss > points[-1].total_loss
        assert points[-1].total_loss < 0.01

    def test_delay_shrinks_with_capacity(self):
        trace = bursty_trace()
        points = capacity_sweep(
            trace, lookup_rates=(900.0, 5000.0), seed=1
        )
        assert points[-1].mean_delay < points[0].mean_delay

    def test_validation(self):
        with pytest.raises(ValueError):
            capacity_sweep(bursty_trace(duration=2.0), lookup_rates=(0.0,))


class TestAggregation:
    @pytest.fixture(scope="class")
    def scenario(self):
        return Scenario(quick_test_profile(duration=600.0), seed=2)

    def test_single_server_identity_shape(self, scenario):
        aggregate = aggregate_servers(scenario, 1, window_length=120.0,
                                      first_window_start=60.0)
        assert len(aggregate) > 0
        assert aggregate.timestamps[0] >= 0.0
        assert aggregate.timestamps[-1] <= 121.0

    def test_rate_scales_with_servers(self, scenario):
        one = aggregate_servers(scenario, 1, window_length=100.0,
                                first_window_start=60.0)
        two = aggregate_servers(scenario, 2, window_length=100.0,
                                first_window_start=60.0)
        ratio = len(two) / max(1, len(one))
        assert 1.3 < ratio < 3.0  # windows differ in population, ~2x

    def test_address_blocks_disjoint(self, scenario):
        aggregate = aggregate_servers(scenario, 2, window_length=100.0,
                                      first_window_start=60.0)
        server_value = aggregate.server_address.value
        client_addrs = np.where(
            aggregate.src_addrs == server_value,
            aggregate.dst_addrs, aggregate.src_addrs,
        ).astype(np.int64)
        blocks = set(client_addrs >> 20)
        assert len(blocks) == 2

    def test_timestamps_sorted(self, scenario):
        aggregate = aggregate_servers(scenario, 3, window_length=60.0,
                                      first_window_start=60.0)
        assert np.all(np.diff(aggregate.timestamps) >= 0)

    def test_offered_pps(self, scenario):
        aggregate = aggregate_servers(scenario, 1, window_length=100.0,
                                      first_window_start=60.0)
        assert offered_pps(aggregate, 100.0) == pytest.approx(
            len(aggregate) / 100.0
        )

    def test_validation(self, scenario):
        with pytest.raises(ValueError):
            aggregate_servers(scenario, 0)
        with pytest.raises(ValueError):
            aggregate_servers(scenario, 1, window_length=0.0)
        with pytest.raises(ValueError):
            offered_pps(None, 0.0)
        with pytest.raises(ValueError):
            required_capacity_linear(0.0, 2)
        with pytest.raises(ValueError):
            required_capacity_linear(100.0, 2, utilisation_target=0.0)

    def test_linear_rule(self):
        assert required_capacity_linear(800.0, 4, utilisation_target=0.8) == (
            pytest.approx(4000.0)
        )
