"""Facility-network reports: loss curves, saturation points, latency.

Answers §IV's concentration question quantitatively: as a facility's
concentration points are oversubscribed, where does loss appear first,
how fast does it grow, and what latency budget does the surviving
traffic pay?  Everything here consumes the per-hop reports of
:mod:`repro.facilitynet.pipeline` and the provisioning envelopes of
:mod:`repro.core.facility` — the packet-level counterpart of the
count-level fleet analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.facility import FacilityEnvelope
from repro.facilitynet.pipeline import PipelineResult, finish_uplink, run_fabric
from repro.facilitynet.topology import (
    TIER_CORE,
    TIER_RACK,
    TIER_UPLINK,
    provision_from_envelope,
)
from repro.fleet.profiles import FleetProfile
from repro.gameserver.fluid import FluidSeries
from repro.trace.packet import Direction
from repro.trace.trace import Trace

#: Tiers in traversal order (the order saturation is searched in).
TIER_ORDER = (TIER_RACK, TIER_CORE, TIER_UPLINK)


# ----------------------------------------------------------------------
# envelope of the offered facility load
# ----------------------------------------------------------------------
def ingress_envelope(
    ingress: Sequence[Trace],
    start: float,
    end: float,
    percentile: float = 100.0,
) -> FacilityEnvelope:
    """Facility envelope of the offered (pre-loss) rack ingress load.

    Bins every rack's arrivals into one per-second facility
    :class:`~repro.gameserver.fluid.FluidSeries` and reads its
    :class:`~repro.core.facility.FacilityEnvelope` — the demand baseline
    topologies are provisioned against.  ``percentile=100`` sizes
    against the absolute busiest second.
    """
    nbins = int(np.ceil(end - start))
    if nbins < 1:
        raise ValueError(f"window [{start!r}, {end!r}) too short")
    in_counts = np.zeros(nbins)
    out_counts = np.zeros(nbins)
    in_bytes = np.zeros(nbins)
    out_bytes = np.zeros(nbins)
    overhead = None
    for trace in ingress:
        if not len(trace):
            continue
        if overhead is None:
            overhead = trace.overhead
        index = np.clip((trace.timestamps - start).astype(np.int64), 0, nbins - 1)
        inbound = trace.direction_mask(Direction.IN)
        payload = trace.payload_sizes.astype(np.float64)
        np.add.at(in_counts, index[inbound], 1.0)
        np.add.at(out_counts, index[~inbound], 1.0)
        np.add.at(in_bytes, index[inbound], payload[inbound])
        np.add.at(out_bytes, index[~inbound], payload[~inbound])
    series = FluidSeries(
        bin_size=1.0,
        start_time=float(start),
        in_counts=in_counts,
        out_counts=out_counts,
        in_bytes=in_bytes,
        out_bytes=out_bytes,
    )
    return FacilityEnvelope.from_series(
        series,
        overhead_per_packet=overhead.per_packet if overhead is not None else None,
        percentile=percentile,
    )


# ----------------------------------------------------------------------
# saturation identification and latency budget
# ----------------------------------------------------------------------
def first_dropping_tier(
    result: PipelineResult, threshold: float = 0.0
) -> Optional[str]:
    """The first tier (traversal order) whose pooled loss exceeds ``threshold``.

    ``None`` when every tier carries its load — the provisioned-with-
    headroom regime.
    """
    for tier in TIER_ORDER:
        if result.tier_loss_rate(tier) > threshold:
            return tier
    return None


@dataclass(frozen=True)
class LatencyBudget:
    """End-to-end delay decomposition across tiers.

    Tier means are forwarded-packet-weighted; ``total_mean_s`` is the
    sum of tier means — the budget a packet surviving every hop pays on
    average.
    """

    tier_mean_s: Dict[str, float]
    tier_p99_s: Dict[str, float]

    @property
    def total_mean_s(self) -> float:
        """Sum of per-tier mean delays."""
        return float(sum(self.tier_mean_s.values()))

    @property
    def dominant_tier(self) -> str:
        """The tier contributing the largest mean delay."""
        return max(self.tier_mean_s, key=lambda tier: self.tier_mean_s[tier])


def latency_budget(result: PipelineResult) -> LatencyBudget:
    """Decompose the pipeline's delay into per-tier contributions."""
    tier_mean: Dict[str, float] = {}
    tier_p99: Dict[str, float] = {}
    for tier in TIER_ORDER:
        reports = result.tier(tier)
        forwarded = sum(report.forwarded for report in reports)
        if forwarded:
            tier_mean[tier] = (
                sum(report.mean_delay_s * report.forwarded for report in reports)
                / forwarded
            )
            tier_p99[tier] = max(report.p99_delay_s for report in reports)
        else:
            tier_mean[tier] = 0.0
            tier_p99[tier] = 0.0
    return LatencyBudget(tier_mean_s=tier_mean, tier_p99_s=tier_p99)


# ----------------------------------------------------------------------
# oversubscription sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OversubscriptionSweep:
    """Loss-vs-oversubscription curves over a fixed topology shape.

    One entry per swept ratio: per-tier pooled loss rates, the uplink's
    byte-level loss, the first-dropping tier, and the end-to-end mean
    latency — the data behind "where does loss first appear".
    """

    ratios: Tuple[float, ...]
    tier_loss: Dict[str, np.ndarray]
    uplink_byte_loss: np.ndarray
    first_dropping: Tuple[Optional[str], ...]
    latency_mean_s: np.ndarray
    results: Tuple[PipelineResult, ...]

    @property
    def uplink_loss(self) -> np.ndarray:
        """Uplink packet-loss rate per swept ratio."""
        return self.tier_loss[TIER_UPLINK]

    def saturating_tier(self) -> Optional[str]:
        """The tier that drops first as oversubscription rises."""
        for tier_name in self.first_dropping:
            if tier_name is not None:
                return tier_name
        return None

    def render(self) -> str:
        """Plain-text loss-vs-oversubscription table."""
        lines = [
            "ratio    rack-loss  core-loss  uplink-loss  uplink-byte  "
            "latency-ms  first-drop"
        ]
        for i, ratio in enumerate(self.ratios):
            lines.append(
                f"{ratio:5.2f}    {self.tier_loss[TIER_RACK][i]:9.4f}  "
                f"{self.tier_loss[TIER_CORE][i]:9.4f}  "
                f"{self.tier_loss[TIER_UPLINK][i]:11.4f}  "
                f"{self.uplink_byte_loss[i]:11.4f}  "
                f"{self.latency_mean_s[i] * 1e3:10.3f}  "
                f"{self.first_dropping[i] or '-'}"
            )
        return "\n".join(lines)


def sweep_uplink_oversubscription(
    fleet: FleetProfile,
    ingress: Sequence[Trace],
    envelope: FacilityEnvelope,
    start: float,
    end: float,
    ratios: Sequence[float],
    n_racks: int,
    rack_oversubscription: float = 0.8,
    core_oversubscription: float = 0.8,
    **topology_kwargs,
) -> OversubscriptionSweep:
    """Sweep the uplink's oversubscription ratio over fixed ingress.

    Racks and core stay provisioned with headroom (ratio < 1) while the
    uplink ratio sweeps ``ratios``.  The fleet windows in ``ingress``
    are reused across every point, and because only the uplink varies,
    the rack/core FIFO traversals run once and every ratio re-runs just
    the uplink over the cached core egress.  Loss as a function of
    oversubscription over a fixed topology — the Frank-Wolfe
    traffic-assignment framing of PAPERS.md applied to the facility
    tree.
    """
    if not ratios:
        raise ValueError("no oversubscription ratios to sweep")

    def topology_at(ratio: float):
        return provision_from_envelope(
            envelope,
            n_servers=fleet.n_servers,
            n_racks=n_racks,
            rack_oversubscription=rack_oversubscription,
            core_oversubscription=core_oversubscription,
            uplink_oversubscription=float(ratio),
            **topology_kwargs,
        )

    fabric = run_fabric(
        topology_at(ratios[0]), tuple(ingress), start, end, seed=fleet.seed
    )
    results = [finish_uplink(topology_at(ratio), fabric) for ratio in ratios]
    tier_loss = {
        tier: np.asarray([result.tier_loss_rate(tier) for result in results])
        for tier in TIER_ORDER
    }
    return OversubscriptionSweep(
        ratios=tuple(float(r) for r in ratios),
        tier_loss=tier_loss,
        uplink_byte_loss=np.asarray(
            [result.uplink.byte_loss_rate for result in results]
        ),
        first_dropping=tuple(first_dropping_tier(result) for result in results),
        latency_mean_s=np.asarray(
            [latency_budget(result).total_mean_s for result in results]
        ),
        results=tuple(results),
    )
