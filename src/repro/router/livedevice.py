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

The device's one stream (``live-device`` of its seed) first draws every
stall window up to the horizon, then one lognormal service time per
*offered* packet, in offer order, whether the packet is forwarded or
dropped — the convention of the offline replay, which draws one service
time per packet of its input.  The service times are drawn a block of
:data:`~repro.sim.random.DRAW_BLOCK` values at a time; for a lognormal
the block size does not change the values.  With the same stall windows
as blackouts and the same service draws,
:func:`~repro.kernels.fifo.fifo_forward` (``freeze=None``) gives the
same fates and departures as the live device.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import Callable, Deque, Iterator, List, Tuple

import numpy as np

from repro.router.device import DeviceProfile
from repro.sim.engine import EventScheduler
from repro.sim.random import RandomStreams, drawn_in_blocks
from repro.trace.packet import Direction

_IN = Direction.IN


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
        if np.isnan(horizon):
            raise ValueError(f"horizon must not be NaN: {horizon!r}")
        self.scheduler = scheduler
        self.profile = profile if profile is not None else DeviceProfile()
        self.stats = LiveDeviceStats()
        self._rng = RandomStreams(seed).get("live-device")
        self._engine_free = scheduler.now
        self._wan_backlog: Deque[float] = deque()
        self._lan_backlog: Deque[float] = deque()
        self._wan_queue = self.profile.wan_queue
        self._lan_queue = self.profile.lan_queue
        self._stalls: List[Tuple[float, float]] = self._draw_stalls(horizon)
        self._stall_index = 0
        self._stall_start, self._stall_end = self._stall_window(0)
        self._mean_service = 1.0 / self.profile.lookup_rate
        if self.profile.service_cv > 0:
            sigma = float(np.sqrt(np.log(1.0 + self.profile.service_cv**2)))
            self._sigma = sigma
            self._mu = float(np.log(self._mean_service)) - 0.5 * sigma * sigma
        else:
            self._sigma = 0.0
            self._mu = 0.0
        # one service time per offered packet, in offer order
        self._service: Iterator[float] = (
            repeat(self._mean_service) if self._sigma == 0.0
            else drawn_in_blocks(partial(self._rng.lognormal, self._mu, self._sigma))
        )

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

    def _stall_window(self, index: int) -> Tuple[float, float]:
        """Window ``index``, or one that never opens past the last."""
        if index < len(self._stalls):
            return self._stalls[index]
        return (float("inf"), float("inf"))

    def _next_stall(self, now: float) -> None:
        """Skip the stall windows that ended by ``now``."""
        stalls = self._stalls
        index = self._stall_index
        while index < len(stalls) and stalls[index][1] <= now:
            index += 1
        self._stall_index = index
        self._stall_start, self._stall_end = self._stall_window(index)

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
        # every offered packet takes its draw, dropped or not
        service = next(self._service)
        # each side's backlog holds the finish times of its packets still
        # in the device; only the offered side's needs expiring
        if direction is _IN:
            backlog = self._wan_backlog
            while backlog and backlog[0] <= now:
                backlog.popleft()
            stats.offered_in += 1
            # inbound packets are dropped while a stall window is open
            if now >= self._stall_end:
                self._next_stall(now)
            if now >= self._stall_start or len(backlog) >= self._wan_queue:
                stats.dropped_in += 1
                return False
            stats.forwarded_in += 1
        else:
            backlog = self._lan_backlog
            while backlog and backlog[0] <= now:
                backlog.popleft()
            stats.offered_out += 1
            if len(backlog) >= self._lan_queue:
                stats.dropped_out += 1
                return False
            stats.forwarded_out += 1

        free = self._engine_free
        start = free if free > now else now
        finish = start + service
        self._engine_free = finish
        backlog.append(finish)
        stats.delays.append(finish - now)
        scheduler.call_at(finish, deliver)
        return True
