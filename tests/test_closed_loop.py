"""Unit and integration tests for the closed-loop simulation."""

import os
import subprocess
import sys

import numpy as np
import pytest
from helpers import quick_test_profile

from repro.gameserver.client import ClientState, GameClient
from repro.gameserver.config import olygamer_week
from repro.gameserver.network import (
    ClientPath,
    DEFAULT_PATHS,
    PathProfile,
    path_for_class,
)
from repro.gameserver.server import GameServer, run_closed_loop
from repro.router.device import DeviceProfile
from repro.router.livedevice import LiveForwardingDevice
from repro.sim.engine import EventScheduler
from repro.trace.packet import Direction


class TestPathModels:
    def test_sample_delay_near_latency(self, rng):
        path = PathProfile(latency=0.1, jitter=0.01)
        delays = np.asarray([path.sample_delay(rng) for _ in range(2000)])
        assert delays.mean() == pytest.approx(0.1, abs=0.005)
        assert delays.min() >= 0.05

    def test_zero_jitter_deterministic(self, rng):
        path = PathProfile(latency=0.05)
        assert path.sample_delay(rng) == 0.05

    def test_loss_rate(self, rng):
        path = PathProfile(latency=0.05, loss_rate=0.2)
        losses = sum(path.sample_loss(rng) for _ in range(5000))
        assert losses / 5000 == pytest.approx(0.2, abs=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            PathProfile(latency=-1.0)
        with pytest.raises(ValueError):
            PathProfile(latency=0.1, jitter=-0.1)
        with pytest.raises(ValueError):
            PathProfile(latency=0.1, loss_rate=1.0)

    def test_catalogue(self):
        assert path_for_class("modem") is DEFAULT_PATHS["modem"]
        assert path_for_class("unknown") is DEFAULT_PATHS["modem"]
        modem = path_for_class("modem")
        fast = path_for_class("l337")
        assert modem.uplink.latency > fast.uplink.latency

    def test_symmetric_constructor(self):
        path = ClientPath.symmetric(latency=0.02, jitter=0.001)
        assert path.uplink == path.downlink


class TestCleanLoop:
    @pytest.fixture(scope="class")
    def clean(self):
        return run_closed_loop(
            olygamer_week(), n_clients=8, duration=30.0, seed=4
        )

    def test_all_clients_connect(self, clean):
        assert clean["server"].player_count == 8
        assert all(c.state is ClientState.CONNECTED for c in clean["clients"])

    def test_no_timeouts_or_freezes(self, clean):
        assert clean["server"].timeouts == 0
        assert clean["server"].freeze_seconds < 0.5

    def test_load_matches_rate_model(self, clean):
        profile = olygamer_week()
        trace = clean["trace"]
        pps = len(trace) / 30.0
        expected = 8 * (
            1.0 / profile.client_update_interval
            + profile.ticks_per_second * profile.snapshot_send_probability
        )
        assert pps == pytest.approx(expected, rel=0.15)

    def test_clients_receive_snapshots(self, clean):
        for client in clean["clients"]:
            assert client.snapshots_received > 100
            assert client.updates_sent > 100

    def test_trace_has_handshakes(self, clean):
        trace = clean["trace"]
        assert len(trace.inbound()) > 0
        assert len(trace.outbound()) > 0

    def test_reproducible(self):
        a = run_closed_loop(quick_test_profile(), 4, 20.0, seed=9)
        b = run_closed_loop(quick_test_profile(), 4, 20.0, seed=9)
        assert len(a["trace"]) == len(b["trace"])
        assert np.allclose(a["trace"].timestamps, b["trace"].timestamps)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_closed_loop(quick_test_profile(), 0, 10.0)
        with pytest.raises(ValueError):
            run_closed_loop(quick_test_profile(), 4, 0.0)

    def test_non_finite_duration_rejected(self):
        # a non-finite horizon would tick forever, so run it in a child
        # interpreter with a timeout
        _assert_raises_value_error_promptly(
            "from repro.gameserver.config import olygamer_week\n"
            "from repro.gameserver.server import run_closed_loop\n"
            "for duration in (float('nan'), float('inf'), float('-inf')):\n"
            "    try:\n"
            "        run_closed_loop(olygamer_week(), 2, duration)\n"
            "    except ValueError:\n"
            "        continue\n"
            "    raise SystemExit(f'{duration} accepted')\n"
        )


def _assert_raises_value_error_promptly(script: str) -> None:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("the simulation did not return within 60 s")
    assert proc.returncode == 0, proc.stderr or proc.stdout


class TestClientStateMachine:
    def test_double_connect_rejected(self):
        scheduler = EventScheduler()
        server = GameServer(quick_test_profile(), scheduler, seed=1)
        client = GameClient(
            0, scheduler, server, path_for_class("modem"),
            np.random.default_rng(0),
        )
        client.connect()
        with pytest.raises(RuntimeError):
            client.connect()
        server.stop()

    def test_lost_connect_request_is_retried(self):
        # the uplink drops the request; the retry a second later is sent
        # without a loss draw, so the client still joins
        scheduler = EventScheduler()
        server = GameServer(quick_test_profile(), scheduler, seed=1)
        path = ClientPath(
            uplink=PathProfile(latency=0.01, loss_rate=0.999),
            downlink=PathProfile(latency=0.01),
        )
        client = GameClient(0, scheduler, server, path, np.random.default_rng(0))
        client.connect()
        scheduler.run_until(0.9)
        assert client.state is ClientState.CONNECTING
        scheduler.run_until(2.0)
        assert client.state is ClientState.CONNECTED
        server.stop()

    def test_refused_when_full(self):
        profile = quick_test_profile().replace(max_players=1)
        scheduler = EventScheduler()
        server = GameServer(profile, scheduler, seed=1)
        clients = [
            GameClient(i, scheduler, server, path_for_class("l337"),
                       np.random.default_rng(i))
            for i in range(2)
        ]
        for client in clients:
            client.connect()
        scheduler.run_until(2.0)
        states = [c.state for c in clients]
        assert states.count(ClientState.CONNECTED) == 1
        assert states.count(ClientState.DISCONNECTED) == 1
        server.stop()


class TestBehindDevice:
    def test_loss_asymmetry_emerges(self):
        profile = olygamer_week()

        def factory(scheduler):
            return LiveForwardingDevice(
                scheduler, DeviceProfile(), seed=13, horizon=130.0
            )

        result = run_closed_loop(
            profile, n_clients=20, duration=120.0, seed=13,
            transport_factory=factory,
        )
        stats = result["device"].stats
        assert stats.inbound_loss_rate > 0.0
        assert stats.inbound_loss_rate > stats.outbound_loss_rate
        assert stats.forwarded_in + stats.dropped_in == stats.offered_in
        assert stats.forwarded_out + stats.dropped_out == stats.offered_out

    def test_fast_device_is_transparent(self):
        profile = olygamer_week()

        def factory(scheduler):
            return LiveForwardingDevice(
                scheduler,
                DeviceProfile(
                    lookup_rate=50_000.0,
                    stall_interval_mean=1e9,
                ),
                seed=13,
                horizon=40.0,
            )

        result = run_closed_loop(
            profile, n_clients=10, duration=30.0, seed=13,
            transport_factory=factory,
        )
        stats = result["device"].stats
        assert stats.inbound_loss_rate == 0.0
        assert stats.outbound_loss_rate == 0.0
        assert result["server"].player_count == 10


class TestLiveDeviceUnit:
    def test_delivery_ordering(self):
        scheduler = EventScheduler()
        device = LiveForwardingDevice(
            scheduler,
            DeviceProfile(lookup_rate=100.0, service_cv=0.0,
                          stall_interval_mean=1e9),
            seed=1,
            horizon=100.0,
        )
        delivered = []
        for i in range(5):
            scheduler.schedule(
                0.001 * i,
                lambda i=i: device.submit(Direction.IN,
                                          lambda i=i: delivered.append(i)),
            )
        scheduler.run_until(1.0)
        assert delivered == [0, 1, 2, 3, 4]
        # FIFO service at 10 ms/packet: 5 packets take ~50 ms
        assert device.stats.forwarded_in == 5

    def test_nan_horizon_rejected(self):
        _assert_raises_value_error_promptly(
            "from repro.router.livedevice import LiveForwardingDevice\n"
            "from repro.sim.engine import EventScheduler\n"
            "try:\n"
            "    LiveForwardingDevice(EventScheduler(), horizon=float('nan'))\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('NaN horizon accepted')\n"
        )

    def test_infinite_horizon_is_accepted(self):
        device = LiveForwardingDevice(EventScheduler(), horizon=float("inf"))
        assert device._stalls
        assert all(np.isfinite(window).all() for window in device._stalls)

    def test_queue_overflow_drops(self):
        scheduler = EventScheduler()
        device = LiveForwardingDevice(
            scheduler,
            DeviceProfile(lookup_rate=10.0, service_cv=0.0, wan_queue=2,
                          stall_interval_mean=1e9),
            seed=1,
            horizon=100.0,
        )
        outcomes = []
        for i in range(6):
            scheduler.schedule(
                1e-6 * i,
                lambda: outcomes.append(
                    device.submit(Direction.IN, lambda: None)
                ),
            )
        scheduler.run_until(10.0)
        assert outcomes.count(True) == 2
        assert device.stats.dropped_in == 4
