"""A live game server for the closed-loop simulation.

The counterpart of :class:`~repro.gameserver.client.GameClient`:
admission against the finite slot table, the 50 ms broadcast tick, the
engine liveness rule (drop clients silent for several seconds), and the
application-level freeze the paper observed behind the NAT — when the
inbound command stream dries up while players are connected, the game
logic stalls and the broadcast pauses.

Packets can be routed through a transport (e.g.
:class:`~repro.router.livedevice.LiveForwardingDevice`) so device drops
feed back into gameplay, closing the loop the offline Table IV pipeline
approximates.  The server records every packet it sends and receives
into a :class:`~repro.trace.trace.TraceBuilder` at its own vantage
point — the same tap position as the paper's tcpdump.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.gameserver.admission import SlotTable
from repro.gameserver.client import GameClient
from repro.gameserver.config import ServerProfile
from repro.gameserver.protocol import CONTROL_PAYLOADS, MessageType, ProtocolModel
from repro.sim.engine import EventScheduler
from repro.sim.random import RandomStreams
from repro.trace.packet import Direction
from repro.trace.trace import Trace, TraceBuilder

#: Server-side liveness window (engine default mirrors the client's).
SERVER_TIMEOUT_S = 5.0
#: Inbound starvation window that stalls the game logic (the freeze).
FREEZE_DETECT_S = 0.35


class GameServer:
    """The live server endpoint.

    Parameters
    ----------
    profile:
        Calibrated server profile (tick, slots, payload models).
    scheduler:
        Shared simulation scheduler.
    seed:
        Seed for payload-size and snapshot-probability draws.
    transport:
        Optional callable ``(direction, deliver) -> bool`` interposed on
        every packet (the live NAT device).  ``None`` sends directly.
    """

    def __init__(
        self,
        profile: ServerProfile,
        scheduler: EventScheduler,
        seed: int = 0,
        transport: Optional[Callable[[Direction, Callable[[], None]], bool]] = None,
    ) -> None:
        self.profile = profile
        self.scheduler = scheduler
        self.protocol = ProtocolModel.from_profile(profile)
        self.transport = transport
        self.rng = RandomStreams(seed).get("live-server")
        self.slots = SlotTable(capacity=profile.max_players)
        self.clients: Dict[int, GameClient] = {}
        self._last_heard: Dict[int, float] = {}
        self._last_inbound = 0.0
        self.freeze_seconds = 0.0
        self._frozen_since: Optional[float] = None
        self.timeouts = 0
        self.builder = TraceBuilder(server_address=profile.server_address)
        self._tick_stop = scheduler.schedule_periodic(
            profile.tick_interval, self.on_tick, priority=-1, label="server-tick"
        )

    # ------------------------------------------------------------------
    # admission and lifecycle
    # ------------------------------------------------------------------
    def on_connect_request(self, client: GameClient) -> None:
        """A connect request arrives from the network."""
        now = self.scheduler.now
        self._record(Direction.IN, client,
                     CONTROL_PAYLOADS[MessageType.CONNECT_REQUEST])
        accepted = self.slots.try_admit(client.client_id)
        if accepted:
            self.clients[client.client_id] = client
            self._last_heard[client.client_id] = now
        self._record(Direction.OUT, client,
                     CONTROL_PAYLOADS[MessageType.CONNECT_REPLY])
        self._send_to_client(
            client, lambda c=client, a=accepted: c.on_connect_reply(a)
        )

    def on_disconnect(self, client: GameClient) -> None:
        """A voluntary disconnect arrives."""
        self._record(Direction.IN, client, CONTROL_PAYLOADS[MessageType.DISCONNECT])
        self._drop_client(client.client_id)

    def on_client_timeout(self, client: GameClient) -> None:
        """The client gave up on us (its own liveness rule fired)."""
        self._drop_client(client.client_id)

    def _drop_client(self, client_id: int) -> None:
        if client_id in self.clients:
            del self.clients[client_id]
            self._last_heard.pop(client_id, None)
            self.slots.release(client_id)

    # ------------------------------------------------------------------
    # inbound game traffic
    # ------------------------------------------------------------------
    def on_client_update(self, client: GameClient) -> None:
        """A movement/command packet arrives (post-path, post-device)."""
        if client.client_id not in self.clients:
            return
        now = self.scheduler.now
        size = self.protocol.client_update.sample(self.rng)
        self._record(Direction.IN, client, int(size))
        self._last_heard[client.client_id] = now
        self._last_inbound = now
        if self._frozen_since is not None:
            self.freeze_seconds += now - self._frozen_since
            self._frozen_since = None

    # ------------------------------------------------------------------
    # the broadcast tick
    # ------------------------------------------------------------------
    def on_tick(self) -> None:
        """One 50 ms engine tick: liveness sweep + state broadcast."""
        now = self.scheduler.now
        self._sweep_timeouts(now)
        if not self.clients:
            return
        # the freeze: game logic starves without client commands
        if now - self._last_inbound > FREEZE_DETECT_S:
            if self._frozen_since is None:
                self._frozen_since = now
            return
        probability = self.profile.snapshot_send_probability
        serialization = 0.0
        for client in list(self.clients.values()):
            if self.rng.uniform() >= min(1.0, probability):
                continue
            size = self.protocol.server_snapshot.sample(self.rng)
            # the NIC serialises the burst: ~0.2 ms per small packet at
            # the access link, matching the packet-level generator's
            # 4 ms tick-serialisation window
            serialization += 0.0002
            self.scheduler.schedule_in(
                serialization,
                lambda c=client, s=int(size): self._emit_snapshot(c, s),
            )

    def _emit_snapshot(self, client: GameClient, size: int) -> None:
        if client.client_id not in self.clients:
            return
        self._record(Direction.OUT, client, size)
        self._send_to_client(client, lambda c=client: self._deliver_snapshot(c))

    def _deliver_snapshot(self, client: GameClient) -> None:
        if client.path.downlink.sample_loss(client.rng):
            return
        delay = client.path.downlink.sample_delay(client.rng)
        self.scheduler.schedule_in(delay, client.deliver_snapshot)

    def _sweep_timeouts(self, now: float) -> None:
        stale = [
            client_id
            for client_id, heard in self._last_heard.items()
            if now - heard > SERVER_TIMEOUT_S
        ]
        for client_id in stale:
            self.timeouts += 1
            self._drop_client(client_id)

    # ------------------------------------------------------------------
    # transport and recording
    # ------------------------------------------------------------------
    def _send_to_client(
        self, client: GameClient, deliver: Callable[[], None]
    ) -> None:
        if self.transport is None:
            deliver()
        else:
            self.transport(Direction.OUT, deliver)

    def _record(self, direction: Direction, client: GameClient, size: int) -> None:
        profile = self.profile
        client_id = client.client_id
        client_addr = (profile.client_address_base.value + client_id) & 0xFFFFFFFF
        port = 27005 + client_id % 1000
        server_addr = profile.server_address.value
        server_port = profile.server_port
        now = self.scheduler.now
        if direction is Direction.IN:
            self.builder.add(now, direction, client_addr, server_addr,
                             port, server_port, size)
        else:
            self.builder.add(now, direction, server_addr, client_addr,
                             server_port, port, size)

    # ------------------------------------------------------------------
    @property
    def player_count(self) -> int:
        """Currently connected players."""
        return len(self.clients)

    def stop(self) -> None:
        """Halt the tick loop (end of experiment)."""
        self._tick_stop()

    def trace(self) -> Trace:
        """The packets seen at the server's tap so far."""
        return self.builder.build()


def run_closed_loop(
    profile: ServerProfile,
    n_clients: int,
    duration: float,
    seed: int = 0,
    transport_factory: Optional[Callable[[EventScheduler], object]] = None,
) -> dict:
    """Run a closed-loop session: N clients playing for ``duration`` seconds.

    ``transport_factory`` builds a device (e.g. a
    :class:`~repro.router.livedevice.LiveForwardingDevice`) on the shared
    scheduler; when given, *both* directions traverse it.  Returns a dict
    with the server, clients, device (or None) and the server-side trace.
    """
    from repro.gameserver.network import path_for_class

    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1: {n_clients!r}")
    if duration <= 0:
        raise ValueError(f"duration must be positive: {duration!r}")
    scheduler = EventScheduler()
    streams = RandomStreams(seed)
    device = transport_factory(scheduler) if transport_factory else None

    def transport(direction: Direction, deliver: Callable[[], None]) -> bool:
        if device is None:
            deliver()
            return True
        return device.submit(direction, deliver)

    server = GameServer(
        profile, scheduler, seed=seed,
        transport=transport if device is not None else None,
    )

    clients: List[GameClient] = []
    class_names = [c.name for c in profile.link_classes]
    weights = np.asarray([c.weight for c in profile.link_classes], dtype=float)
    weights /= weights.sum()
    pick = streams.get("classes")
    for client_id in range(n_clients):
        link_class = class_names[int(pick.choice(len(class_names), p=weights))]
        client = GameClient(
            client_id=client_id,
            scheduler=scheduler,
            server=_TransportWrappedServer(server, transport)
            if device is not None
            else server,
            path=path_for_class(link_class),
            rng=streams.spawn(f"client-{client_id}").get("client"),
            update_interval=profile.client_update_interval,
            update_jitter=profile.client_update_jitter,
        )
        clients.append(client)
        scheduler.schedule(
            float(streams.get("joins").uniform(0.0, 2.0)), client.connect
        )

    scheduler.run_until(duration)
    server.stop()
    return {
        "server": server,
        "clients": clients,
        "device": device,
        "trace": server.trace(),
        "scheduler": scheduler,
    }


class _TransportWrappedServer:
    """Routes client->server messages through the device transport.

    Clients call the same methods as on a bare server; each call is
    offered to the device as an inbound packet first.
    """

    def __init__(self, server: GameServer, transport) -> None:
        self._server = server
        self._transport = transport

    def on_connect_request(self, client: GameClient) -> None:
        self._transport(
            Direction.IN, lambda: self._server.on_connect_request(client)
        )

    def on_client_update(self, client: GameClient) -> None:
        self._transport(
            Direction.IN, lambda: self._server.on_client_update(client)
        )

    def on_disconnect(self, client: GameClient) -> None:
        self._transport(Direction.IN, lambda: self._server.on_disconnect(client))

    def on_client_timeout(self, client: GameClient) -> None:
        self._server.on_client_timeout(client)
