"""A live game client for the closed-loop simulation.

Implements the client half of the Half-Life-style engine loop the paper
describes: a connect handshake, a periodic movement/command stream at
the modem-clamped rate, and the engine's liveness rule — "the client and
server disconnect after not hearing from each other over a period of
several seconds" (Section III-A, the outage behaviour).
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Callable, Optional

import numpy as np

from repro.gameserver.network import ClientPath
from repro.sim.engine import EventScheduler
from repro.trace.packet import Direction

#: Engine liveness window: silence longer than this drops the link.
DEFAULT_TIMEOUT_S = 5.0


class ClientState(enum.Enum):
    """Connection state machine."""

    IDLE = "idle"
    CONNECTING = "connecting"
    CONNECTED = "connected"
    DISCONNECTED = "disconnected"


_CONNECTED = ClientState.CONNECTED


def _inbound(transport, handler, client) -> Callable[[], None]:
    """``handler(client)`` as one call, offered to ``transport`` first."""
    deliver = partial(handler, client)
    if transport is None:
        return deliver
    return partial(transport, Direction.IN, deliver)


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
    transport:
        Optional callable ``(direction, deliver) -> bool`` (the live NAT
        device) that each connect request, update and disconnect is
        offered to as an inbound packet once it crosses the uplink.
        ``None`` hands them to the server directly.
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
        transport: Optional[Callable[[Direction, Callable[[], None]], bool]] = None,
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
        # the messages' arrivals at the far end of the uplink and the
        # update timer's callback, bound once
        self._request_arrives = _inbound(transport, server.on_connect_request, self)
        self._update_arrives = _inbound(transport, server.on_client_update, self)
        self._send_next = self._send_update

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
            self.scheduler.call_in(delay, self._request_arrives)
        else:
            # lost handshake: retry once after a second, as the engine does
            self.scheduler.call_in(1.0, self._retry_connect)

    def _retry_connect(self) -> None:
        if self.state is ClientState.CONNECTING:
            delay = self.path.uplink.sample_delay(self.rng)
            self.scheduler.call_in(delay, self._request_arrives)

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

    # ------------------------------------------------------------------
    # the periodic command stream
    # ------------------------------------------------------------------
    def _schedule_next_update(self) -> None:
        if self.state is not _CONNECTED:
            return
        spacing = self.rng.normal(self.update_interval, self.update_jitter)
        self._send_event = self.scheduler.schedule_in(
            spacing if spacing > 0.004 else 0.004, self._send_next
        )

    def _send_update(self) -> None:
        if self.state is not _CONNECTED:
            return
        scheduler = self.scheduler
        if scheduler.now - self.last_heard > self.timeout:
            # the liveness rule: the server has been silent too long
            self.timed_out = True
            self.state = ClientState.DISCONNECTED
            self.server.on_client_timeout(self)
            return
        self.updates_sent += 1
        uplink = self.path.uplink
        rng = self.rng
        if not uplink.sample_loss(rng):
            scheduler.call_in(uplink.sample_delay(rng), self._update_arrives)
        # the next update (``_schedule_next_update``; still connected)
        spacing = rng.normal(self.update_interval, self.update_jitter)
        self._send_event = scheduler.schedule_in(
            spacing if spacing > 0.004 else 0.004, self._send_next
        )

    # ------------------------------------------------------------------
    # downlink reception
    # ------------------------------------------------------------------
    def deliver_snapshot(self) -> None:
        """A server snapshot arrives (already past path loss/delay)."""
        if self.state is not _CONNECTED:
            return
        self.snapshots_received = self.snapshots_received + 1
        self.last_heard = self.scheduler.now
