"""Unit tests for ServerProfile and the protocol payload models."""

import numpy as np
import pytest
from helpers import quick_test_profile

from repro.gameserver.config import (
    OutageSpec,
    ServerProfile,
    olygamer_week,
)
from repro.gameserver.protocol import (
    PayloadModel,
    ProtocolModel,
    solve_truncation_mu,
    truncated_normal_mean,
)


class TestServerProfile:
    def test_defaults_match_paper_constants(self):
        profile = olygamer_week()
        assert profile.tick_interval == 0.050
        assert profile.max_players == 22
        assert profile.map_duration == 1800.0
        assert profile.duration == pytest.approx(626_477.0)
        assert len(profile.outages) == 3

    def test_derived_rates(self):
        profile = olygamer_week()
        assert profile.ticks_per_second == pytest.approx(20.0)
        assert profile.nominal_client_pps_in == pytest.approx(
            1.0 / profile.client_update_interval
        )
        assert profile.nominal_client_pps_out == pytest.approx(
            20.0 * profile.snapshot_send_probability
        )

    def test_per_player_bandwidth_near_modem(self):
        profile = olygamer_week()
        bandwidth = profile.nominal_client_bandwidth_bps(overhead_bytes=54)
        # the modem clamp: ~40 kbps per player
        assert 33_000 <= bandwidth <= 48_000

    def test_replace_and_scaled(self):
        profile = olygamer_week()
        short = profile.scaled(3600.0)
        assert short.duration == 3600.0
        assert short.outages == ()
        assert short.max_players == profile.max_players

    def test_scaled_keeps_in_range_outages(self):
        profile = olygamer_week().replace(
            outages=(OutageSpec(start=100.0, duration=5.0),)
        )
        kept = profile.scaled(1000.0, keep_outages=True)
        assert len(kept.outages) == 1
        dropped = profile.scaled(50.0, keep_outages=True)
        assert dropped.outages == ()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("tick_interval", 0.0),
            ("max_players", 0),
            ("snapshot_send_probability", 1.5),
            ("new_client_probability", -0.1),
            ("duration", 0.0),
            ("map_change_downtime", 2000.0),
            ("link_classes", ()),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            olygamer_week().replace(**{field: value})

    def test_inverted_payload_bounds_rejected(self):
        with pytest.raises(ValueError):
            olygamer_week().replace(
                inbound_payload_min=80.0, inbound_payload_max=40.0
            )

    def test_quick_profile_is_small(self):
        profile = quick_test_profile()
        assert profile.duration <= 600.0
        assert profile.max_players <= 8


class TestTruncatedMean:
    def test_symmetric_window_no_shift(self):
        assert truncated_normal_mean(0.0, 1.0, -2.0, 2.0) == pytest.approx(0.0)

    def test_low_cut_raises_mean(self):
        assert truncated_normal_mean(100.0, 60.0, 28.0, 420.0) > 100.0

    def test_solver_hits_target(self):
        mu = solve_truncation_mu(129.5, 62.0, 28.0, 420.0)
        assert truncated_normal_mean(mu, 62.0, 28.0, 420.0) == pytest.approx(
            129.5, abs=1e-6
        )

    def test_solver_rejects_target_outside_window(self):
        with pytest.raises(ValueError):
            solve_truncation_mu(500.0, 60.0, 28.0, 420.0)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            truncated_normal_mean(0.0, 0.0, -1.0, 1.0)


class TestPayloadModel:
    def test_targeting_effective_mean(self, rng):
        model = PayloadModel.targeting(129.5, 62.0, 28.0, 420.0)
        assert model.effective_mean == pytest.approx(129.5, abs=1e-6)
        samples = model.sample(rng, size=100_000)
        assert samples.mean() == pytest.approx(129.5, rel=0.01)

    def test_samples_bounded_integers(self, rng):
        model = PayloadModel.targeting(39.7, 5.5, 24.0, 72.0)
        samples = model.sample(rng, size=10_000)
        assert samples.dtype == np.int64
        assert samples.min() >= 24
        assert samples.max() <= 72


class TestProtocolModel:
    def test_from_profile_hits_table3_means(self):
        protocol = ProtocolModel.from_profile(olygamer_week())
        assert protocol.client_update.effective_mean == pytest.approx(39.7, abs=0.01)
        assert protocol.server_snapshot.effective_mean == pytest.approx(
            129.5, abs=0.01
        )

    def test_inbound_smaller_than_outbound(self):
        protocol = ProtocolModel.from_profile(olygamer_week())
        assert (
            protocol.server_snapshot.effective_mean
            > 3.0 * protocol.client_update.effective_mean
        )
