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
at its own vantage point — the same tap position as the paper's
tcpdump — and :meth:`GameServer.trace` freezes them into a
:class:`~repro.trace.trace.Trace`.

The server's random quantities each have a stream of the
``live-server`` family of its seed: ``snapshot-coins`` (whether a
client gets this tick's snapshot), ``snapshot-sizes`` and
``update-sizes``.  Each is drawn a block of
:data:`~repro.sim.random.DRAW_BLOCK` values at a time, and that block
size is part of the stream's definition (a block of payload sizes is
one :meth:`~repro.gameserver.protocol.PayloadModel.sample` call).  A
snapshot's downlink loss and delay come from the receiving client's own
streams (:mod:`repro.gameserver.client`).
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.gameserver.admission import SlotTable
from repro.gameserver.client import GameClient
from repro.gameserver.config import ServerProfile
from repro.gameserver.protocol import CONTROL_PAYLOADS, MessageType, ProtocolModel
from repro.sim.engine import EventScheduler
from repro.sim.random import RandomStreams, drawn_in_blocks
from repro.trace.packet import Direction
from repro.trace.trace import Trace, TraceBuilder

#: Server-side liveness window (engine default mirrors the client's).
SERVER_TIMEOUT_S = 5.0
#: Inbound starvation window that stalls the game logic (the freeze).
FREEZE_DETECT_S = 0.35

_IN = int(Direction.IN)
_OUT = int(Direction.OUT)

#: A tap row's (direction, src, dst, src port, dst port) prefix.
_Key = Tuple[int, int, int, int, int]


class GameServer:
    """The live server endpoint.

    Parameters
    ----------
    profile:
        Calibrated server profile (tick, slots, payload models).
    scheduler:
        Shared simulation scheduler.
    seed:
        Seed of the server's streams (snapshot coins, snapshot and
        update sizes).
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
        streams = RandomStreams(seed).spawn("live-server")
        coins = streams.get("snapshot-coins")
        probability = min(1.0, profile.snapshot_send_probability)
        self._snapshot_coins: Iterator[bool] = drawn_in_blocks(
            lambda size: coins.random(size) < probability
        )
        self._snapshot_sizes: Iterator[int] = drawn_in_blocks(
            partial(self.protocol.server_snapshot.sample,
                    streams.get("snapshot-sizes"))
        )
        self._update_sizes: Iterator[int] = drawn_in_blocks(
            partial(self.protocol.client_update.sample, streams.get("update-sizes"))
        )
        self.slots = SlotTable(capacity=profile.max_players)
        self.clients: Dict[int, GameClient] = {}
        self._last_heard: Dict[int, float] = {}
        self._last_inbound = 0.0
        self.freeze_seconds = 0.0
        self._frozen_since: Optional[float] = None
        self.timeouts = 0
        # the tap, one entry per packet in each column: its time, its
        # payload size and the index of its (direction, src, dst, src
        # port, dst port) prefix in ``_prefixes``, where each client's in-
        # and outbound prefixes are added on its first packet
        self._times = array("d")
        self._sizes = array("q")
        self._prefix_rows = array("q")
        self._prefixes: List[_Key] = []
        self._keys: Dict[int, Tuple[int, int]] = {}
        # each client's snapshot delivery (through the transport), bound once
        self._snapshot_sends: Dict[int, Callable[[], None]] = {}
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
            deliver = partial(self._deliver_snapshot, client)
            self._snapshot_sends[client.client_id] = (
                deliver if self.transport is None
                else partial(self.transport, Direction.OUT, deliver)
            )
        self._record(Direction.OUT, client,
                     CONTROL_PAYLOADS[MessageType.CONNECT_REPLY])
        self._send_to_client(partial(client.on_connect_reply, accepted))

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
        client_id = client.client_id
        if client_id not in self.clients:
            return
        now = self.scheduler.now
        self._times.append(now)
        self._prefix_rows.append(self._keys[client_id][0])
        self._sizes.append(next(self._update_sizes))
        self._last_heard[client_id] = now
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
        coins = self._snapshot_coins
        sizes = self._snapshot_sizes
        call_in = self.scheduler.call_in
        emit = self._emit_snapshot
        serialization = 0.0
        for client_id in list(self.clients):
            if not next(coins):
                continue
            # the NIC serialises the burst: ~0.2 ms per small packet at
            # the access link, matching the packet-level generator's
            # 4 ms tick-serialisation window
            serialization += 0.0002
            call_in(serialization, partial(emit, client_id, next(sizes)))

    def _emit_snapshot(self, client_id: int, size: int) -> None:
        if client_id not in self.clients:
            return
        self._times.append(self.scheduler.now)
        self._prefix_rows.append(self._keys[client_id][1])
        self._sizes.append(size)
        self._snapshot_sends[client_id]()

    def _deliver_snapshot(self, client: GameClient) -> None:
        if next(client.downlink_losses):
            return
        self.scheduler.call_in(next(client.downlink_delays), client.deliver_snapshot)

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
    def _send_to_client(self, deliver: Callable[[], None]) -> None:
        if self.transport is None:
            deliver()
        else:
            self.transport(Direction.OUT, deliver)

    def _record(self, direction: Direction, client: GameClient, size: int) -> None:
        """Tap one control packet (first contact caches the client's keys)."""
        client_id = client.client_id
        keys = self._keys.get(client_id)
        if keys is None:
            first = len(self._prefixes)
            self._prefixes.extend(self._client_keys(client_id))
            keys = self._keys[client_id] = (first, first + 1)
        self._times.append(self.scheduler.now)
        self._prefix_rows.append(keys[0 if direction is Direction.IN else 1])
        self._sizes.append(size)

    def _client_keys(self, client_id: int) -> Tuple[_Key, _Key]:
        """The inbound and outbound row prefixes of one client."""
        profile = self.profile
        client_addr = (profile.client_address_base.value + client_id) & 0xFFFFFFFF
        port = 27005 + client_id % 1000
        server_addr = profile.server_address.value
        server_port = profile.server_port
        return (
            (_IN, client_addr, server_addr, port, server_port),
            (_OUT, server_addr, client_addr, server_port, port),
        )

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
        builder = TraceBuilder(server_address=self.profile.server_address)
        if self._times:
            rows = np.frombuffer(self._prefix_rows, dtype=np.int64)
            prefixes = np.asarray(self._prefixes, dtype=np.int64)
            builder.add_batch(
                np.frombuffer(self._times, dtype=np.float64),
                *(prefixes[:, column][rows] for column in range(5)),
                np.frombuffer(self._sizes, dtype=np.int64),
            )
        return builder.build()


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
    if not np.isfinite(duration):
        # the server ticks forever: a non-finite horizon never returns
        raise ValueError(f"duration must be finite: {duration!r}")
    if duration <= 0:
        raise ValueError(f"duration must be positive: {duration!r}")
    scheduler = EventScheduler()
    streams = RandomStreams(seed)
    device = transport_factory(scheduler) if transport_factory else None
    transport = device.submit if device is not None else None

    server = GameServer(profile, scheduler, seed=seed, transport=transport)

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
            server=server,
            path=path_for_class(link_class),
            rng=streams.spawn(f"client-{client_id}").get("client"),
            update_interval=profile.client_update_interval,
            update_jitter=profile.client_update_jitter,
            transport=transport,
        )
        clients.append(client)
        scheduler.call_at(
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
