"""Unit tests for the round schedule and download rate limiting."""

import numpy as np
import pytest
from helpers import quick_test_profile

from repro.gameserver.config import olygamer_week
from repro.gameserver.downloads import DownloadScheduler, TokenBucket
from repro.gameserver.rounds import RoundSchedule


def _end(transfer):
    """Completion time of a transfer's last chunk."""
    return transfer.chunk_times[-1] if transfer.chunk_times else transfer.start


class TestRoundSchedule:
    def test_rounds_tile_maps(self, quick_profile):
        schedule = RoundSchedule(quick_profile, seed=1)
        for a, b in zip(schedule.rounds, schedule.rounds[1:]):
            assert b.start >= a.end - 1e-9

    def test_rounds_respect_horizon(self, quick_profile):
        schedule = RoundSchedule(quick_profile, seed=1)
        assert schedule.rounds[-1].end <= quick_profile.duration + 1e-9

    def test_several_minute_rounds(self):
        profile = olygamer_week().scaled(7200.0)
        schedule = RoundSchedule(profile, seed=2)
        durations = [r.duration for r in schedule.rounds if r.duration > 44.0]
        assert 60.0 < np.mean(durations) < 400.0

    def test_over_ten_rounds_per_map(self):
        profile = olygamer_week().scaled(2 * 1800.0)
        schedule = RoundSchedule(profile, seed=3)
        # paper: "allowing for over 10 rounds to be played per map"; the
        # hour holds two maps
        assert len(schedule.rounds) / 2 >= 5.0

    def test_intensity_ramps_within_round(self, quick_profile):
        schedule = RoundSchedule(quick_profile, seed=1)
        record = schedule.rounds[0]
        early = schedule.intensity(np.asarray([record.start + 0.01 * record.duration]))
        late = schedule.intensity(np.asarray([record.start + 0.99 * record.duration]))
        assert late[0] > early[0]

    def test_intensity_bounded(self, quick_profile):
        schedule = RoundSchedule(quick_profile, seed=1)
        times = np.linspace(0, quick_profile.duration * 0.99, 500)
        intensity = schedule.intensity(times)
        amplitude = quick_profile.round_intensity_amplitude
        assert np.all(intensity >= 1.0 - amplitude - 1e-9)
        assert np.all(intensity <= 1.0 + amplitude + 1e-9)

    def test_zero_amplitude_flat(self):
        profile = quick_test_profile().replace(round_intensity_amplitude=0.0)
        schedule = RoundSchedule(profile, seed=1)
        intensity = schedule.intensity(np.linspace(0, 500, 100))
        assert np.allclose(intensity, 1.0)


class TestTokenBucket:
    def test_immediate_send_when_full(self):
        bucket = TokenBucket(rate=1000.0, capacity=5000.0)
        assert bucket.earliest_send(0.0, 1000.0) == 0.0

    def test_spacing_enforced_at_rate(self):
        bucket = TokenBucket(rate=1000.0, capacity=1000.0)
        bucket.consume(0.0, 1000.0)  # drain
        when = bucket.earliest_send(0.0, 500.0)
        assert when == pytest.approx(0.5)

    def test_refill_capped_at_capacity(self):
        bucket = TokenBucket(rate=1000.0, capacity=1000.0)
        bucket.consume(0.0, 1000.0)
        assert bucket.earliest_send(100.0, 1000.0) == 100.0  # fully refilled

    def test_oversized_chunk_rejected(self):
        bucket = TokenBucket(rate=100.0, capacity=100.0)
        with pytest.raises(ValueError):
            bucket.earliest_send(0.0, 500.0)

    def test_unaffordable_consume_rejected(self):
        bucket = TokenBucket(rate=100.0, capacity=100.0)
        bucket.consume(0.0, 100.0)
        with pytest.raises(ValueError):
            bucket.consume(0.0, 50.0)

    def test_time_going_backwards_rejected(self):
        bucket = TokenBucket(rate=100.0, capacity=100.0)
        bucket.consume(10.0, 1.0)
        with pytest.raises(ValueError):
            bucket.consume(5.0, 1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=10.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=10.0, capacity=0.0)


class TestDownloadScheduler:
    def test_transfer_rate_limited(self, rng):
        profile = olygamer_week()
        scheduler = DownloadScheduler(profile)
        transfer = scheduler.plan_transfer(rng, start=0.0)
        duration = _end(transfer) - transfer.start
        if duration > 0:
            observed_rate = sum(transfer.chunk_sizes) / max(duration, 1e-9)
            # long transfers must respect the configured server rate limit
            # (short ones ride the initial bucket burst)
            if sum(transfer.chunk_sizes) > profile.download_rate_limit:
                assert observed_rate <= profile.download_rate_limit * 1.5

    def test_chunk_sizes_bounded(self, rng):
        profile = olygamer_week()
        transfer = DownloadScheduler(profile).plan_transfer(rng, start=5.0)
        assert all(0 < s <= profile.download_chunk_payload for s in transfer.chunk_sizes)

    def test_chunks_nondecreasing_times(self, rng):
        transfer = DownloadScheduler(olygamer_week()).plan_transfer(rng, start=2.0)
        times = list(transfer.chunk_times)
        assert times == sorted(times)
        assert times[0] >= 2.0

    def test_concurrent_transfers_share_budget(self, rng):
        profile = olygamer_week()
        scheduler = DownloadScheduler(profile)
        first = scheduler.plan_transfer(rng, start=0.0)
        second = scheduler.plan_transfer(rng, start=0.0)
        # the second transfer must be pushed out by the first's consumption
        if sum(first.chunk_sizes) >= profile.download_rate_limit:
            assert _end(second) > first.start

    def test_acks_present_for_long_transfers(self, rng):
        profile = olygamer_week().replace(download_size_mean=50_000.0)
        transfer = DownloadScheduler(profile).plan_transfer(rng, start=0.0)
        assert len(transfer.ack_times) >= 1
        assert transfer.ack_size > 0

    def test_overlapping_requests_served_in_order(self, rng):
        # large downloads requested 0.1 s apart: each later request falls
        # while the previous transfer is still being sent
        profile = olygamer_week().replace(download_size_mean=50_000.0)
        scheduler = DownloadScheduler(profile)
        previous_end = 0.0
        for i in range(20):
            start = 0.1 * i
            transfer = scheduler.plan_transfer(rng, start=start)
            times = list(transfer.chunk_times)
            assert times == sorted(times)
            assert times[0] >= start
            assert times[0] >= previous_end
            assert transfer.start == start
            previous_end = _end(transfer)
        assert previous_end > 0.1 * 19

    def test_seed5_default_window_builds(self):
        # seed 5's week has a joiner whose download is requested before the
        # previous download's last chunk; the limiter used to refuse it
        from repro.workloads.scenarios import Scenario

        trace = Scenario(olygamer_week(), seed=5).packet_window()
        assert len(trace) > 0
        assert np.all(np.diff(trace.timestamps) >= 0)
