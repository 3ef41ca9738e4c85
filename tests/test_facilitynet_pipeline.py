"""Integration tests: streaming pipeline, determinism, and reports."""

import numpy as np
import pytest

from repro.facilitynet.pipeline import (
    finish_uplink,
    rack_ingress_traces,
    run_fabric,
    run_hops,
)
from repro.facilitynet.report import (
    TIER_ORDER,
    first_dropping_tier,
    ingress_envelope,
    latency_budget,
    sweep_uplink_oversubscription,
)
from repro.facilitynet.topology import TIER_UPLINK, build_topology, provision_from_envelope
from repro.fleet.aggregate import kway_merge_traces
from repro.fleet.profiles import hosting_facility
from repro.fleet.scenario import FleetScenario
from repro.matchmaking import PoolConfig, simulate_matchmaking
from repro.trace.trace import _COLUMNS

N_SERVERS = 4
N_RACKS = 2
WINDOW = (120.0, 180.0)
HORIZON_S = 300.0


@pytest.fixture(scope="module")
def fleet():
    return hosting_facility(n_servers=N_SERVERS, duration=HORIZON_S, seed=0)


@pytest.fixture(scope="module")
def shape():
    return build_topology(
        N_SERVERS, N_RACKS, per_server_pps=1.0, per_server_bps=1.0
    )


@pytest.fixture(scope="module")
def ingress(fleet, shape):
    return rack_ingress_traces(fleet, shape, *WINDOW, workers=1)


@pytest.fixture(
    scope="module", params=[None, "least_loaded"], ids=["exogenous", "least_loaded"]
)
def assignments(request, fleet):
    """No assignments (each server's own arrivals), or a policy's placements."""
    if request.param is None:
        return None
    config = PoolConfig.for_fleet(
        fleet, demand_ratio=2.0, epoch_length=30.0, session_duration_mean=150.0
    )
    return simulate_matchmaking(fleet, request.param, config).sessions


@pytest.fixture(scope="module")
def envelope(ingress):
    return ingress_envelope(ingress, *WINDOW, percentile=100.0)


class TestRackIngress:
    def test_one_trace_per_rack_with_traffic(self, ingress):
        assert len(ingress) == N_RACKS
        for trace in ingress:
            assert len(trace) > 0
            assert np.all(np.diff(trace.timestamps) >= 0)

    def test_rack_ingress_merges_the_fleet_server_windows(
        self, fleet, shape, assignments
    ):
        """Rack ingress and the fleet scenario build the same server windows."""
        ingress = rack_ingress_traces(
            fleet, shape, *WINDOW, workers=1, assignments=assignments
        )
        scenario = FleetScenario(fleet, assignments=assignments)
        rack_of = shape.server_to_rack()
        for rack, trace in enumerate(ingress):
            expected = kway_merge_traces(
                [
                    scenario.server_scenario(index).packet_window(*WINDOW)
                    for index in range(N_SERVERS)
                    if rack_of[index] == rack
                ]
            )
            assert len(trace) > 0
            for name in _COLUMNS:
                assert np.array_equal(getattr(trace, name), getattr(expected, name))

    def test_sharded_matches_serial_bit_identically(self, fleet, shape, ingress):
        parallel = rack_ingress_traces(fleet, shape, *WINDOW, workers=2)
        for serial_trace, parallel_trace in zip(ingress, parallel):
            assert len(serial_trace) == len(parallel_trace)
            assert np.array_equal(
                serial_trace.timestamps, parallel_trace.timestamps
            )
            assert np.array_equal(
                serial_trace.payload_sizes, parallel_trace.payload_sizes
            )
            assert np.array_equal(
                serial_trace.src_addrs, parallel_trace.src_addrs
            )

    def test_window_outside_horizon_rejected(self, fleet, shape):
        with pytest.raises(ValueError):
            rack_ingress_traces(fleet, shape, 0.0, HORIZON_S + 100.0, workers=1)

    def test_mismatched_fleet_rejected(self, fleet):
        wrong = build_topology(8, 2, per_server_pps=1.0, per_server_bps=1.0)
        with pytest.raises(ValueError):
            rack_ingress_traces(fleet, wrong, *WINDOW, workers=1)


class TestRunHops:
    def test_traversal_order_and_conservation(self, fleet, envelope, ingress):
        topology = provision_from_envelope(
            envelope,
            n_servers=N_SERVERS,
            n_racks=N_RACKS,
            rack_oversubscription=0.5,
            core_oversubscription=0.7,
            uplink_oversubscription=2.0,
        )
        result = run_hops(topology, ingress, *WINDOW, seed=fleet.seed)
        tiers = [report.tier for report in result.hops]
        assert tiers == ["rack"] * N_RACKS + ["core", "uplink"]
        # every hop's offered load is exactly its upstream's forwarded
        rack_forwarded = sum(r.forwarded for r in result.tier("rack"))
        assert result.hop("core").offered == rack_forwarded
        assert result.uplink.offered == result.hop("core").forwarded
        assert result.ingress_packets == sum(len(t) for t in ingress)
        assert 0.0 <= result.end_to_end_loss_rate <= 1.0

    def test_per_hop_series_account_for_drops(self, fleet, envelope, ingress):
        topology = provision_from_envelope(
            envelope,
            n_servers=N_SERVERS,
            n_racks=N_RACKS,
            uplink_oversubscription=4.0,
        )
        result = run_hops(topology, ingress, *WINDOW, seed=fleet.seed)
        uplink = result.uplink
        assert uplink.dropped > 0
        assert float(uplink.loss_series().sum()) == uplink.dropped
        assert float(uplink.series.in_counts.sum()) == uplink.offered
        assert uplink.byte_loss_rate > 0.0

    def test_keep_delivered(self, fleet, envelope, ingress):
        topology = provision_from_envelope(
            envelope, n_servers=N_SERVERS, n_racks=N_RACKS
        )
        result = run_hops(
            topology, ingress, *WINDOW, seed=fleet.seed, keep_delivered=True
        )
        assert result.delivered is not None
        assert len(result.delivered) == result.delivered_packets
        assert np.all(np.diff(result.delivered.timestamps) >= 0)

    def test_staged_fabric_equals_full_run(self, fleet, envelope, ingress):
        """run_fabric + finish_uplink is exactly run_hops (sweep fast path)."""
        topology = provision_from_envelope(
            envelope,
            n_servers=N_SERVERS,
            n_racks=N_RACKS,
            uplink_oversubscription=3.0,
        )
        full = run_hops(topology, ingress, *WINDOW, seed=fleet.seed)
        fabric = run_fabric(topology, ingress, *WINDOW, seed=fleet.seed)
        staged = finish_uplink(topology, fabric)
        for full_hop, staged_hop in zip(full.hops, staged.hops):
            assert full_hop.offered == staged_hop.offered
            assert full_hop.forwarded == staged_hop.forwarded
            assert full_hop.dropped == staged_hop.dropped
            assert full_hop.mean_delay_s == staged_hop.mean_delay_s
            assert np.array_equal(
                full_hop.series.in_counts, staged_hop.series.in_counts
            )

    def test_wrong_ingress_count_rejected(self, fleet, envelope, ingress):
        topology = provision_from_envelope(
            envelope, n_servers=N_SERVERS, n_racks=N_RACKS
        )
        with pytest.raises(ValueError):
            run_hops(topology, ingress[:1], *WINDOW, seed=fleet.seed)


class TestReports:
    def test_sweep_monotone_and_saturates_uplink(self, fleet, envelope, ingress):
        sweep = sweep_uplink_oversubscription(
            fleet,
            ingress,
            envelope,
            *WINDOW,
            ratios=(0.8, 2.0, 4.0),
            n_racks=N_RACKS,
            rack_oversubscription=0.5,
            core_oversubscription=0.7,
        )
        assert np.all(np.diff(sweep.uplink_loss) >= 0.0)
        assert sweep.uplink_loss[0] == 0.0
        assert sweep.uplink_loss[-1] > 0.0
        assert sweep.saturating_tier() == TIER_UPLINK
        assert sweep.first_dropping[0] is None
        assert sweep.first_dropping[-1] == TIER_UPLINK
        rendered = sweep.render()
        assert "uplink" in rendered and "0.80" in rendered

    def test_first_dropping_tier_none_with_headroom(self, fleet, envelope, ingress):
        topology = provision_from_envelope(
            envelope,
            n_servers=N_SERVERS,
            n_racks=N_RACKS,
            rack_oversubscription=0.5,
            core_oversubscription=0.5,
            uplink_oversubscription=0.5,
        )
        result = run_hops(topology, ingress, *WINDOW, seed=fleet.seed)
        assert first_dropping_tier(result) is None

    def test_latency_budget_decomposes(self, fleet, envelope, ingress):
        topology = provision_from_envelope(
            envelope,
            n_servers=N_SERVERS,
            n_racks=N_RACKS,
            uplink_oversubscription=4.0,
        )
        result = run_hops(topology, ingress, *WINDOW, seed=fleet.seed)
        budget = latency_budget(result)
        assert set(budget.tier_mean_s) == set(TIER_ORDER)
        assert budget.total_mean_s == pytest.approx(
            sum(budget.tier_mean_s.values())
        )
        assert budget.total_mean_s > 0.0
        assert budget.dominant_tier == TIER_UPLINK  # the choked stage

    def test_envelope_reads_offered_load(self, ingress, envelope):
        packets = sum(len(trace) for trace in ingress)
        assert envelope.mean_pps == pytest.approx(
            packets / (WINDOW[1] - WINDOW[0]), rel=0.05
        )
        assert envelope.peak_pps >= envelope.mean_pps
        assert envelope.peak_bandwidth_bps > 0.0
