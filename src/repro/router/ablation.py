"""Device-design ablations for the §IV-A claims.

Two quantitative claims in the paper's routing discussion become
sweeps here:

* **Buffering does not save you** — "adding buffers or combining packets
  does not necessarily help performance since delayed packets can be
  worse than dropped packets ... buffering the 50ms packet spikes will
  consume more than a quarter of the maximum tolerable latency."
  :func:`buffer_sweep` trades queue depth against loss *and* delay
  against an interactivity budget.

* **Lookup capacity is the lever** — :func:`capacity_sweep` shows loss
  collapsing once the engine rate clears the offered burst rate, the
  "increasing the peak route lookup capacity" prescription.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.router.device import DeviceProfile, ForwardingEngine
from repro.trace.trace import Trace

#: Maximum tolerable end-to-end latency for fast-action games (the
#: paper's framing: 50 ms of buffering eats "more than a quarter" of the
#: budget — i.e. a budget below 200 ms).
TOLERABLE_LATENCY_S = 0.180
#: A delayed packet is "worse than dropped" past this device share.
DEVICE_DELAY_BUDGET_S = TOLERABLE_LATENCY_S / 4.0


@dataclass(frozen=True)
class BufferSweepPoint:
    """Outcome of one queue-depth configuration."""

    queue_depth: int
    inbound_loss: float
    outbound_loss: float
    mean_delay: float
    p99_delay: float
    #: fraction of forwarded packets whose device delay exceeds the
    #: interactivity budget — the paper's "worse than dropped" packets
    budget_violations: float


def _measure(
    trace: Trace, profile: DeviceProfile, seed: int
) -> BufferSweepPoint:
    result = ForwardingEngine(profile, seed=seed).process(trace)
    delays = result.delays()
    if delays.size:
        mean_delay = float(delays.mean())
        p99 = float(np.percentile(delays, 99))
        violations = float((delays > DEVICE_DELAY_BUDGET_S).mean())
    else:
        mean_delay = p99 = violations = 0.0
    return BufferSweepPoint(
        queue_depth=profile.wan_queue,
        inbound_loss=result.inbound_loss_rate,
        outbound_loss=result.outbound_loss_rate,
        mean_delay=mean_delay,
        p99_delay=p99,
        budget_violations=violations,
    )


def buffer_sweep(
    trace: Trace,
    queue_depths: Sequence[int] = (4, 8, 16, 32, 64, 128, 256),
    base_profile: DeviceProfile = None,
    seed: int = 0,
) -> List[BufferSweepPoint]:
    """Sweep both queues' depth and measure the loss/delay trade-off.

    Stalls and freezes are disabled so the sweep isolates buffering;
    both queues scale together (a single shared-memory pool, as in
    commodity devices).
    """
    base = base_profile if base_profile is not None else DeviceProfile()
    points: List[BufferSweepPoint] = []
    for depth in queue_depths:
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth!r}")
        profile = DeviceProfile(
            lookup_rate=base.lookup_rate,
            service_cv=base.service_cv,
            wan_queue=int(depth),
            lan_queue=int(depth),
            stall_interval_mean=1e12,
            freeze_threshold=10**9,
        )
        points.append(_measure(trace, profile, seed))
    return points


@dataclass(frozen=True)
class CapacitySweepPoint:
    """Outcome of one lookup-rate configuration."""

    lookup_rate: float
    inbound_loss: float
    outbound_loss: float
    mean_delay: float

    @property
    def total_loss(self) -> float:
        """Combined loss impairment."""
        return self.inbound_loss + self.outbound_loss


def capacity_sweep(
    trace: Trace,
    lookup_rates: Sequence[float] = (600.0, 900.0, 1250.0, 2000.0, 4000.0, 8000.0),
    base_profile: DeviceProfile = None,
    seed: int = 0,
) -> List[CapacitySweepPoint]:
    """Sweep the lookup-engine rate at fixed (default) buffering."""
    base = base_profile if base_profile is not None else DeviceProfile()
    points: List[CapacitySweepPoint] = []
    for rate in lookup_rates:
        if rate <= 0:
            raise ValueError(f"lookup rate must be positive, got {rate!r}")
        profile = DeviceProfile(
            lookup_rate=float(rate),
            service_cv=base.service_cv,
            wan_queue=base.wan_queue,
            lan_queue=base.lan_queue,
            stall_interval_mean=1e12,
            freeze_threshold=10**9,
        )
        result = ForwardingEngine(profile, seed=seed).process(trace)
        delays = result.delays()
        points.append(
            CapacitySweepPoint(
                lookup_rate=float(rate),
                inbound_loss=result.inbound_loss_rate,
                outbound_loss=result.outbound_loss_rate,
                mean_delay=float(delays.mean()) if delays.size else 0.0,
            )
        )
    return points


def buffering_helps_loss_but_not_experience(
    points: Sequence[BufferSweepPoint],
) -> bool:
    """The paper's §IV-A verdict, as a checkable predicate.

    True when deeper buffers reduce loss (first → last point) while the
    delay-budget violation rate grows — i.e. buffering converts drops
    into late packets rather than fixing the game.
    """
    if len(points) < 2:
        raise ValueError("need at least two sweep points")
    first, last = points[0], points[-1]
    loss_improves = last.inbound_loss + last.outbound_loss < (
        first.inbound_loss + first.outbound_loss
    )
    lateness_grows = last.budget_violations > first.budget_violations
    return loss_improves and lateness_grows
