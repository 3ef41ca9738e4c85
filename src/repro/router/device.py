"""Queueing model of a pps-bound store-and-forward device.

Models the SMC Barricade-class NAT box of Section IV: a single route-
lookup/NAT engine with a listed capacity of 1000–1500 pps, fed by two
finite queues (LAN side: the game server; WAN side: the Internet).  The
model reproduces the paper's three observed phenomena:

1. **Inbound >> outbound loss** (Table IV: 1.3 % vs 0.046 %).  The
   server's tick bursts monopolise the engine for ~15–20 ms; inbound
   packets arriving during a drain accumulate in the small WAN-side
   queue.  Episodic WAN-path stalls (NAT table maintenance) concentrate
   further inbound loss, producing the drop-outs of Fig 14(b).
2. **Correlated freezes** (Fig 15).  Bursts of inbound loss starve the
   game logic, and the server's outgoing flood pauses.  The engine
   records each freeze as a window ``(trigger + lag, trigger + lag +
   duration)``, but it suppresses server output from the triggering
   drop itself up to the window's end: the pause starts at the trigger,
   ``lag`` before the recorded window opens.  Outgoing dips mirror
   inbound loss without outgoing drops, the paper's observation.
3. **Low but non-zero outbound loss.**  The larger LAN-side queue
   absorbs normal bursts; only coincidences of consecutive-tick bursts
   and service-time jitter overflow it.

The engine is strictly work-conserving FIFO by arrival (the lookup unit
processes packets in arrival order regardless of side), with per-side
buffer accounting — the architecture of low-end devices of the era.

The FIFO core lives in :func:`repro.kernels.fifo_forward` (the same
kernel drives facility rack/core switches via
:mod:`repro.facilitynet.hops`); this module keeps the SMC-specific
parts — stall drawing, freeze policy, per-side accounting — and must
stay bit-identical to the pre-refactor engine (see
``tests/test_device_hop_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.kernels import FreezePolicy, fifo_forward
from repro.sim.random import RandomStreams
from repro.trace.packet import Direction
from repro.trace.trace import Trace


@dataclass(frozen=True)
class DeviceProfile:
    """Parameters of the store-and-forward device.

    Defaults are calibrated to reproduce Table IV against the default
    game profile (see EXPERIMENTS.md, experiment T4).
    """

    #: Sustained route-lookup capacity, packets/second (SMC lists 1000–1500).
    lookup_rate: float = 1250.0
    #: Coefficient of variation of per-packet service time.
    service_cv: float = 0.35
    #: WAN-side (inbound) queue, packets.
    wan_queue: int = 9
    #: LAN-side (outbound) queue, packets.
    lan_queue: int = 19
    #: Mean seconds between WAN-path maintenance stalls (exponential).
    stall_interval_mean: float = 21.0
    #: Mean stall length, seconds (exponential, capped at 4x mean).
    stall_duration_mean: float = 0.22
    #: Inbound drops within `freeze_window` seconds that trigger a game freeze.
    freeze_threshold: int = 12
    freeze_window: float = 0.5
    #: Seconds the server's output pauses once starved.
    freeze_duration: float = 0.45
    #: Offset of a recorded freeze window's start from the triggering
    #: drop (output is already suppressed from the trigger on).
    freeze_lag: float = 0.10

    def __post_init__(self) -> None:
        if self.lookup_rate <= 0:
            raise ValueError(f"lookup_rate must be positive: {self.lookup_rate!r}")
        if self.wan_queue < 1 or self.lan_queue < 1:
            raise ValueError("queue capacities must be >= 1")
        if self.service_cv < 0:
            raise ValueError(f"service_cv must be >= 0: {self.service_cv!r}")
        if self.freeze_threshold < 1:
            raise ValueError("freeze_threshold must be >= 1")


@dataclass
class ForwardingResult:
    """Outcome of pushing one trace through the device.

    ``fates`` has one entry per input packet: 1 forwarded, 0 dropped,
    -1 suppressed (never sent — the server was frozen).  ``departures``
    holds the device egress timestamp for forwarded packets and NaN
    otherwise.
    """

    fates: np.ndarray
    departures: np.ndarray
    stall_windows: List[Tuple[float, float]]
    freeze_windows: List[Tuple[float, float]]
    directions: np.ndarray
    timestamps: np.ndarray

    def _counts(self, direction: Direction) -> Tuple[int, int, int]:
        mask = self.directions == np.int8(direction)
        offered = int((self.fates[mask] >= 0).sum())
        forwarded = int((self.fates[mask] == 1).sum())
        dropped = int((self.fates[mask] == 0).sum())
        return offered, forwarded, dropped

    @property
    def inbound_offered(self) -> int:
        """Packets from clients to the NAT (Table IV row 'Clients to NAT')."""
        return self._counts(Direction.IN)[0]

    @property
    def inbound_forwarded(self) -> int:
        """Packets from the NAT to the server ('NAT to Server')."""
        return self._counts(Direction.IN)[1]

    @property
    def outbound_offered(self) -> int:
        """Packets from the server to the NAT ('Server to NAT'), after freezes."""
        return self._counts(Direction.OUT)[0]

    @property
    def outbound_forwarded(self) -> int:
        """Packets from the NAT to clients ('NAT to Clients')."""
        return self._counts(Direction.OUT)[1]

    @property
    def inbound_loss_rate(self) -> float:
        """Fraction of offered inbound packets dropped."""
        offered, _, dropped = self._counts(Direction.IN)
        return dropped / offered if offered else 0.0

    @property
    def outbound_loss_rate(self) -> float:
        """Fraction of offered outbound packets dropped."""
        offered, _, dropped = self._counts(Direction.OUT)
        return dropped / offered if offered else 0.0

    @property
    def suppressed_count(self) -> int:
        """Outbound packets never emitted because the game was frozen."""
        return int((self.fates == -1).sum())

    def forwarded_mask(self) -> np.ndarray:
        """Boolean mask of forwarded packets."""
        return self.fates == 1

    def delays(self) -> np.ndarray:
        """Queueing+service delay of each forwarded packet (seconds)."""
        mask = self.forwarded_mask()
        return self.departures[mask] - self.timestamps[mask]


class ForwardingEngine:
    """Single-lookup-engine FIFO forwarding with per-side finite buffers."""

    def __init__(self, profile: DeviceProfile, seed: int = 0) -> None:
        self.profile = profile
        self.streams = RandomStreams(seed)

    # ------------------------------------------------------------------
    def _draw_stalls(self, horizon: float, start: float) -> List[Tuple[float, float]]:
        """Pre-draw the WAN-path maintenance stall windows."""
        profile = self.profile
        rng = self.streams.get("stalls")
        windows: List[Tuple[float, float]] = []
        t = start
        while True:
            t += float(rng.exponential(profile.stall_interval_mean))
            if t >= horizon:
                return windows
            duration = min(
                float(rng.exponential(profile.stall_duration_mean)),
                4.0 * profile.stall_duration_mean,
            )
            windows.append((t, t + duration))

    def process(self, trace: Trace) -> ForwardingResult:
        """Push every packet of ``trace`` through the device.

        Packets must be time-sorted (Trace guarantees it), so the kernel
        takes its vectorised fast path: only busy periods with drops or
        suppressions run per packet.  Service times are
        lognormal-jittered around ``1/lookup_rate``.
        """
        profile = self.profile
        n = len(trace)
        timestamps = trace.timestamps
        directions = trace.directions
        if n == 0:
            return ForwardingResult(
                np.ones(0, dtype=np.int8),
                np.full(0, np.nan),
                [],
                [],
                directions.copy(),
                timestamps.copy(),
            )

        rng = self.streams.get("service")
        mean_service = 1.0 / profile.lookup_rate
        if profile.service_cv > 0:
            sigma = np.sqrt(np.log(1.0 + profile.service_cv**2))
            mu = np.log(mean_service) - 0.5 * sigma**2
            service_times = rng.lognormal(mu, sigma, size=n)
        else:
            service_times = np.full(n, mean_service)

        stalls = self._draw_stalls(float(timestamps[-1]), float(timestamps[0]))
        # WAN side is the kernel's primary class: subject to maintenance
        # stalls (blackouts) and its drops starve the game (freezes)
        kernel = fifo_forward(
            timestamps,
            service_times,
            primary_mask=directions == np.int8(Direction.IN),
            primary_queue=profile.wan_queue,
            secondary_queue=profile.lan_queue,
            blackouts=stalls,
            freeze=FreezePolicy(
                threshold=profile.freeze_threshold,
                window=profile.freeze_window,
                duration=profile.freeze_duration,
                lag=profile.freeze_lag,
            ),
        )
        return ForwardingResult(
            fates=kernel.fates,
            departures=kernel.departures,
            stall_windows=stalls,
            freeze_windows=kernel.freeze_windows,
            directions=directions.copy(),
            timestamps=timestamps.copy(),
        )
