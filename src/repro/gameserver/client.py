"""A live game client for the closed-loop simulation.

Implements the client half of the Half-Life-style engine loop the paper
describes: a connect handshake, a periodic movement/command stream at
the modem-clamped rate, and the engine's liveness rule — "the client and
server disconnect after not hearing from each other over a period of
several seconds" (Section III-A, the outage behaviour).
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.gameserver.network import ClientPath
from repro.sim.engine import EventScheduler

#: Engine liveness window: silence longer than this drops the link.
DEFAULT_TIMEOUT_S = 5.0


class ClientState(enum.Enum):
    """Connection state machine."""

    IDLE = "idle"
    CONNECTING = "connecting"
    CONNECTED = "connected"
    DISCONNECTED = "disconnected"


class GameClient:
    """One player endpoint in the closed-loop simulation.

    Parameters
    ----------
    client_id:
        Stable identity (used for addressing and stats).
    scheduler:
        The shared simulation scheduler.
    server:
        The :class:`~repro.gameserver.server.GameServer` to play on.
    path:
        Bidirectional network path between this client and the server.
    rng:
        Per-client random stream.
    update_interval:
        Seconds between command packets (modem-clamped ~48.5 ms).
    update_jitter:
        Per-packet spacing jitter (path diversity — keeps inbound load
        desynchronised at the server).
    timeout:
        Liveness window before the client declares the server gone.
    """

    def __init__(
        self,
        client_id: int,
        scheduler: EventScheduler,
        server,
        path: ClientPath,
        rng: np.random.Generator,
        update_interval: float = 0.0485,
        update_jitter: float = 0.012,
        timeout: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        if update_interval <= 0:
            raise ValueError(f"update_interval must be positive: {update_interval!r}")
        self.client_id = client_id
        self.scheduler = scheduler
        self.server = server
        self.path = path
        self.rng = rng
        self.update_interval = update_interval
        self.update_jitter = update_jitter
        self.timeout = timeout
        self.state = ClientState.IDLE
        self.last_heard = -float("inf")
        self.snapshots_received = 0
        self.updates_sent = 0
        self.timed_out = False
        self._send_event = None

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Send the connect request across the uplink."""
        if self.state is not ClientState.IDLE:
            raise RuntimeError(f"client {self.client_id} already {self.state.value}")
        self.state = ClientState.CONNECTING
        if not self.path.uplink.sample_loss(self.rng):
            delay = self.path.uplink.sample_delay(self.rng)
            self.scheduler.schedule_in(
                delay, lambda: self.server.on_connect_request(self)
            )
        else:
            # lost handshake: retry once after a second, as the engine does
            self.scheduler.schedule_in(1.0, self._retry_connect)

    def _retry_connect(self) -> None:
        if self.state is ClientState.CONNECTING:
            delay = self.path.uplink.sample_delay(self.rng)
            self.scheduler.schedule_in(
                delay, lambda: self.server.on_connect_request(self)
            )

    def on_connect_reply(self, accepted: bool) -> None:
        """Server's answer arrives on the downlink."""
        if self.state is not ClientState.CONNECTING:
            return
        if not accepted:
            self.state = ClientState.DISCONNECTED
            return
        self.state = ClientState.CONNECTED
        self.last_heard = self.scheduler.now
        self._schedule_next_update()

    def disconnect(self) -> None:
        """Leave the game voluntarily (session over)."""
        if self.state is not ClientState.CONNECTED:
            return
        self.state = ClientState.DISCONNECTED
        if self._send_event is not None:
            self._send_event.cancel()
        if not self.path.uplink.sample_loss(self.rng):
            delay = self.path.uplink.sample_delay(self.rng)
            self.scheduler.schedule_in(
                delay, lambda: self.server.on_disconnect(self)
            )

    # ------------------------------------------------------------------
    # the periodic command stream
    # ------------------------------------------------------------------
    def _schedule_next_update(self) -> None:
        if self.state is not ClientState.CONNECTED:
            return
        spacing = max(
            0.004, float(self.rng.normal(self.update_interval, self.update_jitter))
        )
        self._send_event = self.scheduler.schedule_in(spacing, self._send_update)

    def _send_update(self) -> None:
        if self.state is not ClientState.CONNECTED:
            return
        self._check_liveness()
        if self.state is not ClientState.CONNECTED:
            return
        self.updates_sent += 1
        uplink = self.path.uplink
        rng = self.rng
        if not uplink.sample_loss(rng):
            self.scheduler.schedule_in(
                uplink.sample_delay(rng), lambda: self.server.on_client_update(self)
            )
        self._schedule_next_update()

    def _check_liveness(self) -> None:
        if self.scheduler.now - self.last_heard > self.timeout:
            self.timed_out = True
            self.state = ClientState.DISCONNECTED
            self.server.on_client_timeout(self)

    # ------------------------------------------------------------------
    # downlink reception
    # ------------------------------------------------------------------
    def deliver_snapshot(self) -> None:
        """A server snapshot arrives (already past path loss/delay)."""
        if self.state is not ClientState.CONNECTED:
            return
        self.snapshots_received = self.snapshots_received + 1
        self.last_heard = self.scheduler.now

    @property
    def connected(self) -> bool:
        """Whether the client currently holds a live connection."""
        return self.state is ClientState.CONNECTED
