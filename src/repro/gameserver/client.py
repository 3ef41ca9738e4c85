"""A live game client for the closed-loop simulation.

Implements the client half of the Half-Life-style engine loop the paper
describes: a connect handshake, a periodic movement/command stream at
the modem-clamped rate, and the engine's liveness rule — "the client and
server disconnect after not hearing from each other over a period of
several seconds" (Section III-A, the outage behaviour).

Every random quantity of a client has its own stream, spawned from the
client's generator in this order: uplink loss, uplink delay, update
spacing, downlink loss and downlink delay.  Each is drawn a block of
:data:`~repro.sim.random.DRAW_BLOCK` values at a time
(:func:`~repro.sim.random.drawn_in_blocks`), and that block size is part
of the stream's definition.  So a client's draws do not depend on the
order in which its events interleave with other clients', the server's
or a device's, nor on how many packets the device drops.  The connect
request and its retry take the uplink streams' next values; a lossless
or jitter-free path direction draws nothing.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Callable, Iterator, Optional

import numpy as np

from repro.gameserver.network import ClientPath
from repro.sim.engine import EventScheduler
from repro.sim.random import drawn_in_blocks
from repro.trace.packet import Direction

#: Engine liveness window: silence longer than this drops the link.
DEFAULT_TIMEOUT_S = 5.0
#: Shortest spacing between two updates, whatever the jitter draws.
MIN_UPDATE_SPACING_S = 0.004


class ClientState(enum.Enum):
    """Connection state machine."""

    IDLE = "idle"
    CONNECTING = "connecting"
    CONNECTED = "connected"
    DISCONNECTED = "disconnected"


_CONNECTED = ClientState.CONNECTED


def _update_spacings(
    rng: np.random.Generator, interval: float, jitter: float, size: int
) -> np.ndarray:
    return np.maximum(rng.normal(interval, jitter, size), MIN_UPDATE_SPACING_S)


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
        Per-client generator; the client's five streams are spawned
        from it (see the module docstring).
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
        self.update_interval = update_interval
        self.update_jitter = update_jitter
        self.timeout = timeout
        self.state = ClientState.IDLE
        self.last_heard = -float("inf")
        self.snapshots_received = 0
        self.updates_sent = 0
        self.timed_out = False
        up_losses, up_delays, spacings, down_losses, down_delays = rng.spawn(5)
        self._uplink_losses: Iterator[bool] = path.uplink.losses(up_losses)
        self._uplink_delays: Iterator[float] = path.uplink.delays(up_delays)
        self._spacings: Iterator[float] = drawn_in_blocks(
            partial(_update_spacings, spacings, update_interval, update_jitter)
        )
        #: the downlink's streams, read by the server as it sends snapshots
        self.downlink_losses: Iterator[bool] = path.downlink.losses(down_losses)
        self.downlink_delays: Iterator[float] = path.downlink.delays(down_delays)
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
        if not next(self._uplink_losses):
            self.scheduler.call_in(next(self._uplink_delays), self._request_arrives)
        else:
            # lost handshake: retry once after a second, as the engine does
            self.scheduler.call_in(1.0, self._retry_connect)

    def _retry_connect(self) -> None:
        if self.state is ClientState.CONNECTING:
            self.scheduler.call_in(next(self._uplink_delays), self._request_arrives)

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
        self.scheduler.call_in(next(self._spacings), self._send_next)

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
        if not next(self._uplink_losses):
            scheduler.call_in(next(self._uplink_delays), self._update_arrives)
        # the next update (``_schedule_next_update``; still connected)
        scheduler.call_in(next(self._spacings), self._send_next)

    # ------------------------------------------------------------------
    # downlink reception
    # ------------------------------------------------------------------
    def deliver_snapshot(self) -> None:
        """A server snapshot arrives (already past path loss/delay)."""
        if self.state is not _CONNECTED:
            return
        self.snapshots_received = self.snapshots_received + 1
        self.last_heard = self.scheduler.now
