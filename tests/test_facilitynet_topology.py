"""Unit tests for the facility topology tree and provisioning helpers."""

import pytest

from repro.core.facility import FacilityEnvelope, oversubscribed_capacity
from repro.facilitynet.topology import (
    FacilityTopology,
    LinkSpec,
    RackSpec,
    SwitchSpec,
    TIER_CORE,
    TIER_RACK,
    TIER_UPLINK,
    build_topology,
    place_servers,
    provision_from_envelope,
)


def _envelope(peak_pps=1000.0, peak_bps=2e6):
    return FacilityEnvelope(
        duration=60.0,
        percentile=100.0,
        mean_pps=peak_pps * 0.8,
        peak_pps=peak_pps,
        mean_bandwidth_bps=peak_bps * 0.8,
        peak_bandwidth_bps=peak_bps,
    )


class TestPlacement:
    def test_balanced_contiguous_blocks(self):
        assert place_servers(8, 4) == ((0, 1), (2, 3), (4, 5), (6, 7))
        assert place_servers(7, 3) == ((0, 1, 2), (3, 4), (5, 6))
        assert place_servers(3, 3) == ((0,), (1,), (2,))

    def test_deterministic(self):
        assert place_servers(16, 4) == place_servers(16, 4)

    @pytest.mark.parametrize("args", [(0, 1), (4, 0), (4, 5)])
    def test_invalid_shapes_rejected(self, args):
        with pytest.raises(ValueError):
            place_servers(*args)


class TestSpecs:
    def test_switch_validation(self):
        with pytest.raises(ValueError):
            SwitchSpec("s", TIER_RACK, pps_capacity=0.0)
        with pytest.raises(ValueError):
            SwitchSpec("s", TIER_RACK, pps_capacity=100.0, queue_packets=0)
        with pytest.raises(ValueError):
            SwitchSpec("s", TIER_RACK, pps_capacity=100.0, oversubscription=0.0)

    def test_link_validation(self):
        with pytest.raises(ValueError):
            LinkSpec("u", TIER_UPLINK, rate_bps=0.0, buffer_bytes=1000.0)
        with pytest.raises(ValueError):
            LinkSpec("u", TIER_UPLINK, rate_bps=1e6, buffer_bytes=0.0)

    def test_rack_needs_servers(self):
        switch = SwitchSpec("s", TIER_RACK, pps_capacity=100.0)
        with pytest.raises(ValueError):
            RackSpec("r", (), switch)
        with pytest.raises(ValueError):
            RackSpec("r", (0, 0), switch)


class TestTopologyValidation:
    def test_duplicate_placement_rejected(self):
        switch = SwitchSpec("s", TIER_RACK, pps_capacity=100.0)
        core = SwitchSpec("c", TIER_CORE, pps_capacity=100.0)
        uplink = LinkSpec("u", TIER_UPLINK, rate_bps=1e6, buffer_bytes=1e4)
        with pytest.raises(ValueError):
            FacilityTopology(
                racks=(
                    RackSpec("r0", (0, 1), switch),
                    RackSpec("r1", (1, 2), switch),
                ),
                core=core,
                uplink=uplink,
            )

    def test_gap_in_indices_rejected(self):
        switch = SwitchSpec("s", TIER_RACK, pps_capacity=100.0)
        core = SwitchSpec("c", TIER_CORE, pps_capacity=100.0)
        uplink = LinkSpec("u", TIER_UPLINK, rate_bps=1e6, buffer_bytes=1e4)
        with pytest.raises(ValueError):
            FacilityTopology(
                racks=(RackSpec("r0", (0, 2), switch),),
                core=core,
                uplink=uplink,
            )


class TestBuildTopology:
    def test_shape_and_capacities(self):
        topology = build_topology(
            8, 4,
            per_server_pps=100.0,
            per_server_bps=1e5,
            rack_oversubscription=0.5,
            core_oversubscription=2.0,
            uplink_oversubscription=4.0,
        )
        assert topology.n_servers == 8
        assert topology.n_racks == 4
        assert topology.server_to_rack() == (0, 0, 1, 1, 2, 2, 3, 3)
        # rack: 2 servers * 100 pps / 0.5 = 400 pps
        assert topology.racks[0].switch.pps_capacity == pytest.approx(400.0)
        # core: 8 * 100 / 2 = 400 pps
        assert topology.core.pps_capacity == pytest.approx(400.0)
        # uplink: 8 * 1e5 / 4 = 2e5 bps
        assert topology.uplink.rate_bps == pytest.approx(2e5)
        assert topology.uplink.oversubscription == pytest.approx(4.0)

    def test_describe_mentions_every_hop(self):
        topology = build_topology(4, 2, per_server_pps=10.0, per_server_bps=1e4)
        text = topology.describe()
        for name in ("tor0", "tor1", "core", "uplink"):
            assert name in text

    def test_uplink_buffer_floor(self):
        tiny = build_topology(2, 1, per_server_pps=10.0, per_server_bps=1e3)
        assert tiny.uplink.buffer_bytes == pytest.approx(16 * 1024.0)


class TestEnvelopeProvisioning:
    def test_oversubscribed_capacity(self):
        envelope = _envelope(peak_pps=1000.0, peak_bps=2e6)
        assert oversubscribed_capacity(envelope, 1.0) == (1000.0, 2e6)
        pps, bps = oversubscribed_capacity(envelope, 4.0)
        assert pps == pytest.approx(250.0)
        assert bps == pytest.approx(5e5)
        with pytest.raises(ValueError):
            oversubscribed_capacity(envelope, 0.0)

    def test_per_server_share(self):
        envelope = _envelope(peak_pps=1000.0, peak_bps=2e6)
        assert envelope.per_server_share(4) == (250.0, 5e5)
        with pytest.raises(ValueError):
            envelope.per_server_share(0)

    def test_provision_from_envelope_ratios_exact(self):
        envelope = _envelope(peak_pps=1200.0, peak_bps=6e6)
        topology = provision_from_envelope(
            envelope, n_servers=6, n_racks=3, uplink_oversubscription=2.0
        )
        # the uplink carries exactly peak/ratio regardless of rack split
        assert topology.uplink.rate_bps == pytest.approx(3e6)
        assert topology.core.pps_capacity == pytest.approx(1200.0)
        assert sum(
            rack.switch.pps_capacity for rack in topology.racks
        ) == pytest.approx(1200.0)
