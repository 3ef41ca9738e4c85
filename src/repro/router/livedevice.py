"""Event-driven forwarding device for the closed-loop simulation.

:class:`~repro.router.device.ForwardingEngine` replays a finished trace
offline; this sibling runs *inside* a discrete-event simulation so
in-flight packets interact with live endpoints — the configuration of
the paper's actual NAT experiment, where the device's drops fed back
into the game in real time.

Same architecture as the offline engine: one FIFO lookup unit, finite
per-side buffers, episodic WAN-path maintenance stalls.  The game-freeze
feedback is *not* modelled here — it emerges naturally from the live
server reacting to missing client updates (see
:meth:`repro.gameserver.server.GameServer.on_tick`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Tuple

import numpy as np

from repro.router.device import DeviceProfile
from repro.sim.engine import EventScheduler
from repro.sim.random import RandomStreams
from repro.trace.packet import Direction


@dataclass
class LiveDeviceStats:
    """Forwarding counters accumulated during a live run."""

    offered_in: int = 0
    offered_out: int = 0
    forwarded_in: int = 0
    forwarded_out: int = 0
    dropped_in: int = 0
    dropped_out: int = 0
    delays: List[float] = field(default_factory=list)

    @property
    def inbound_loss_rate(self) -> float:
        """Fraction of offered inbound packets dropped."""
        return self.dropped_in / self.offered_in if self.offered_in else 0.0

    @property
    def outbound_loss_rate(self) -> float:
        """Fraction of offered outbound packets dropped."""
        return self.dropped_out / self.offered_out if self.offered_out else 0.0


class LiveForwardingDevice:
    """A store-and-forward device living on an :class:`EventScheduler`.

    Endpoints call :meth:`submit`; the device either drops the packet
    (full buffer or WAN stall) or schedules ``deliver()`` at the packet's
    service-completion time.  Service is FIFO across both sides through
    one lookup engine, as in the offline model.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        profile: DeviceProfile = None,
        seed: int = 0,
        horizon: float = float("inf"),
    ) -> None:
        self.scheduler = scheduler
        self.profile = profile if profile is not None else DeviceProfile()
        self.stats = LiveDeviceStats()
        self._rng = RandomStreams(seed).get("live-device")
        self._engine_free = scheduler.now
        self._wan_backlog: Deque[float] = deque()
        self._lan_backlog: Deque[float] = deque()
        self._stalls: List[Tuple[float, float]] = self._draw_stalls(horizon)
        self._stall_index = 0
        self._mean_service = 1.0 / self.profile.lookup_rate
        if self.profile.service_cv > 0:
            sigma = float(np.sqrt(np.log(1.0 + self.profile.service_cv**2)))
            self._sigma = sigma
            self._mu = float(np.log(self._mean_service)) - 0.5 * sigma * sigma
        else:
            self._sigma = 0.0
            self._mu = 0.0

    def _draw_stalls(self, horizon: float) -> List[Tuple[float, float]]:
        windows: List[Tuple[float, float]] = []
        t = self.scheduler.now
        limit = horizon if horizon != float("inf") else t + 86_400.0
        while True:
            t += float(self._rng.exponential(self.profile.stall_interval_mean))
            if t >= limit:
                return windows
            duration = min(
                float(self._rng.exponential(self.profile.stall_duration_mean)),
                4.0 * self.profile.stall_duration_mean,
            )
            windows.append((t, t + duration))

    def _service_time(self) -> float:
        if self._sigma == 0.0:
            return self._mean_service
        return float(self._rng.lognormal(self._mu, self._sigma))

    def _in_stall(self, now: float) -> bool:
        while (
            self._stall_index < len(self._stalls)
            and self._stalls[self._stall_index][1] <= now
        ):
            self._stall_index += 1
        return (
            self._stall_index < len(self._stalls)
            and self._stalls[self._stall_index][0] <= now
        )

    def submit(
        self,
        direction: Direction,
        deliver: Callable[[], None],
    ) -> bool:
        """Offer one packet to the device at the current simulation time.

        Returns ``True`` if the packet was accepted (``deliver`` will be
        called at its egress time), ``False`` if it was dropped.
        """
        scheduler = self.scheduler
        now = scheduler.now
        stats = self.stats
        wan = self._wan_backlog
        lan = self._lan_backlog
        while wan and wan[0] <= now:
            wan.popleft()
        while lan and lan[0] <= now:
            lan.popleft()

        if direction is Direction.IN:
            backlog = wan
            stats.offered_in += 1
            if self._in_stall(now) or len(wan) >= self.profile.wan_queue:
                stats.dropped_in += 1
                return False
            stats.forwarded_in += 1
        else:
            backlog = lan
            stats.offered_out += 1
            if len(lan) >= self.profile.lan_queue:
                stats.dropped_out += 1
                return False
            stats.forwarded_out += 1

        start = max(now, self._engine_free)
        finish = start + self._service_time()
        self._engine_free = finish
        backlog.append(finish)
        stats.delays.append(finish - now)
        scheduler.schedule(finish, deliver)
        return True
