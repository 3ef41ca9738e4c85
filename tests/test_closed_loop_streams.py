"""Each random quantity of the closed loop has a stream of its own.

A client's update spacings and uplink delays come from streams nothing
else reads, so they do not depend on how many other clients play, nor on
whether a device sits in the path and drops packets: they are the values
of each stream's definition, a block of ``DRAW_BLOCK`` draws at a time.
"""

from __future__ import annotations

import numpy as np

from repro.gameserver.client import MIN_UPDATE_SPACING_S, GameClient
from repro.gameserver.config import olygamer_week
from repro.gameserver.server import run_closed_loop
from repro.router.device import DeviceProfile
from repro.router.livedevice import LiveForwardingDevice
from repro.sim.random import DRAW_BLOCK, RandomStreams

SEED = 3
DURATION_S = 20.0


def _recorded(values, log):
    for value in values:
        log.append(value)
        yield value


def _client0_draws(monkeypatch, n_clients, behind_device):
    """Client 0's uplink and its update spacings and uplink delays, in draw order."""
    draws = {"spacings": [], "uplink_delays": []}
    init = GameClient.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.client_id == 0:
            self._spacings = _recorded(self._spacings, draws["spacings"])
            self._uplink_delays = _recorded(self._uplink_delays, draws["uplink_delays"])

    def factory(scheduler):
        return LiveForwardingDevice(
            scheduler, DeviceProfile(), seed=SEED + 50, horizon=DURATION_S + 10.0
        )

    with monkeypatch.context() as patch:
        patch.setattr(GameClient, "__init__", recording_init)
        result = run_closed_loop(
            olygamer_week(), n_clients, DURATION_S, seed=SEED,
            transport_factory=factory if behind_device else None,
        )
    if behind_device:
        # the device dropped packets, so the loop's events differ from
        # the clean path's
        assert result["device"].stats.dropped_in > 0
    return result["clients"][0].path.uplink, draws


def _defined(uplink, profile, size):
    """Client 0's first ``size`` spacings and uplink delays, by definition."""
    rng = RandomStreams(SEED).spawn("client-0").get("client")
    _, uplink_delays, spacings, _, _ = rng.spawn(5)
    return {
        "spacings": np.maximum(
            spacings.normal(
                profile.client_update_interval, profile.client_update_jitter, size
            ),
            MIN_UPDATE_SPACING_S,
        ).tolist(),
        "uplink_delays": np.maximum(
            uplink_delays.normal(uplink.latency, uplink.jitter, size),
            0.5 * uplink.latency,
        ).tolist(),
    }


def test_client_draws_ignore_other_clients_and_the_device(monkeypatch):
    runs = [
        _client0_draws(monkeypatch, 5, behind_device=False),
        _client0_draws(monkeypatch, 20, behind_device=False),
        _client0_draws(monkeypatch, 20, behind_device=True),
    ]
    uplink = runs[0][0]
    assert all(run[0] == uplink for run in runs)
    longest = max(len(values) for _, draws in runs for values in draws.values())
    defined = _defined(uplink, olygamer_week(), longest)
    for quantity in ("spacings", "uplink_delays"):
        for _, draws in runs:
            drawn = draws[quantity]
            # past the first block, where a generator shared with another
            # quantity would have drawn that quantity's block in between
            assert len(drawn) > DRAW_BLOCK, quantity
            assert drawn == defined[quantity][: len(drawn)], quantity
