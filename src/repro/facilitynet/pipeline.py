"""Streaming facility pipeline: fleet windows through the topology tree.

The executor pulls per-server packet windows from the fleet's sharded
execution layer, folds each one straight into its rack's bounded-fan-in
accumulator (so at most ``fanin`` per-server traces are alive at once,
and the *full facility* trace is never materialised alongside them), and
then walks the topology in traversal order: every rack's merged ingress
through its ToR switch, the surviving rack egresses k-way-merged through
the core fabric, and the core egress through the uplink.  Each hop's
egress is re-timestamped at its departure times, so downstream hops see
upstream queueing delay and loss — facility load interacting with shared
queues rather than being a pure sum.

Determinism matches the fleet layer: per-server traces depend only on
``(fleet seed, server index)``, fold order is server-index order, and
hop service jitter (when enabled) is seeded per hop name — per-hop
results are bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.facilitynet.hops import HopTraversal, bps_hop, pps_hop
from repro.facilitynet.topology import FacilityTopology, LinkSpec, SwitchSpec
from repro.fleet.aggregate import TraceAccumulator, kway_merge_traces
from repro.fleet.cache import ShardCache
from repro.fleet.execution import WindowTask, fleet_server_seed, shard_map_fold, simulate_window
from repro.fleet.profiles import FleetProfile
from repro.gameserver.fluid import FluidSeries
from repro.gameserver.population import SessionTable
from repro.sim.random import derive_seed
from repro.trace.trace import Trace


@dataclass(frozen=True)
class HopReport:
    """Loss/latency outcome of one hop over one window."""

    name: str
    tier: str
    offered: int
    forwarded: int
    dropped: int
    offered_payload_bytes: float
    forwarded_payload_bytes: float
    mean_delay_s: float
    p99_delay_s: float
    max_delay_s: float
    series: FluidSeries

    @property
    def loss_rate(self) -> float:
        """Fraction of offered packets this hop dropped."""
        return self.dropped / self.offered if self.offered else 0.0

    @property
    def byte_loss_rate(self) -> float:
        """Fraction of offered payload bytes this hop dropped."""
        if self.offered_payload_bytes <= 0:
            return 0.0
        return 1.0 - self.forwarded_payload_bytes / self.offered_payload_bytes

    def loss_series(self) -> np.ndarray:
        """Packets dropped per bin (offered minus carried)."""
        return self.series.in_counts - self.series.out_counts


@dataclass
class PipelineResult:
    """Per-hop reports of one window pushed through the facility tree.

    ``hops`` follows traversal order: one report per rack switch, then
    the core fabric, then the uplink.  ``delivered`` (optional) is the
    trace that survived every hop, re-timestamped at uplink departure.
    """

    start: float
    end: float
    hops: Tuple[HopReport, ...]
    delivered: Optional[Trace] = None

    def hop(self, name: str) -> HopReport:
        """Look up one hop report by spec name."""
        for report in self.hops:
            if report.name == name:
                return report
        raise KeyError(f"no hop named {name!r}")

    def tier(self, tier: str) -> Tuple[HopReport, ...]:
        """All hop reports of one tier, traversal order."""
        return tuple(report for report in self.hops if report.tier == tier)

    @property
    def uplink(self) -> HopReport:
        """The uplink hop report (always the last hop)."""
        return self.hops[-1]

    def tier_loss_rate(self, tier: str) -> float:
        """Pooled loss rate of one tier (drops over offered)."""
        reports = self.tier(tier)
        offered = sum(report.offered for report in reports)
        dropped = sum(report.dropped for report in reports)
        return dropped / offered if offered else 0.0

    @property
    def ingress_packets(self) -> int:
        """Packets the facility's servers offered to the first tier."""
        return sum(report.offered for report in self.hops if report.tier == "rack")

    @property
    def delivered_packets(self) -> int:
        """Packets that survived every hop to the Internet."""
        return self.uplink.forwarded

    @property
    def end_to_end_loss_rate(self) -> float:
        """Fraction of ingress packets lost across the whole tree."""
        if not self.ingress_packets:
            return 0.0
        return 1.0 - self.delivered_packets / self.ingress_packets


# ----------------------------------------------------------------------
# stage 1: per-rack ingress via sharded fleet execution
# ----------------------------------------------------------------------
def rack_ingress_traces(
    fleet: FleetProfile,
    topology: FacilityTopology,
    start: float,
    end: float,
    workers: Optional[int] = None,
    fanin: int = 8,
    cache: Optional[ShardCache] = None,
    assignments: Optional[Tuple[SessionTable, ...]] = None,
) -> Tuple[Trace, ...]:
    """Merged per-rack packet windows, one trace per rack.

    Per-server windows are simulated (sharded when ``workers > 1``) and
    folded in server-index order into per-rack bounded-fan-in
    accumulators — peak memory is O(racks + fanin) per-server traces,
    never the whole fleet, and the result is bit-identical for every
    worker count.  ``cache`` (``None``: no cache) replays per-server
    windows from disk, so a swept ratio or a re-run experiment skips the
    fleet simulation entirely; cached and recomputed ingress are
    bit-identical.

    ``assignments`` (per-server session tables from a
    :class:`repro.matchmaking.MatchmakingResult`) switches the facility
    to *endogenous* ingress: each rack's offered load follows the
    populations the matchmaker assigned to its servers rather than the
    profiles' own arrival processes.
    """
    if topology.n_servers != fleet.n_servers:
        raise ValueError(
            f"topology houses {topology.n_servers} servers but the fleet "
            f"has {fleet.n_servers}"
        )
    if not 0.0 <= start < end <= fleet.horizon + 1e-9:
        raise ValueError(
            f"window [{start!r}, {end!r}) outside the fleet horizon "
            f"{fleet.horizon!r}"
        )
    if assignments is not None and len(assignments) != fleet.n_servers:
        raise ValueError(
            f"{len(assignments)} assignment lists for a fleet of "
            f"{fleet.n_servers} servers"
        )
    rack_of = topology.server_to_rack()
    if assignments is not None:
        from repro.matchmaking.traffic import (
            AssignedWindowTask,
            simulate_assigned_window,
        )

        worker = simulate_assigned_window
        tasks = tuple(
            AssignedWindowTask(
                profile=fleet.server_profile(index),
                sessions=assignments[index],
                seed=fleet_server_seed(fleet.seed, index),
                start=float(start),
                end=float(end),
            )
            for index in range(fleet.n_servers)
        )
    else:
        worker = simulate_window
        tasks = tuple(
            WindowTask(
                profile=fleet.server_profile(index),
                seed=fleet_server_seed(fleet.seed, index),
                start=float(start),
                end=float(end),
            )
            for index in range(fleet.n_servers)
        )

    def fold(
        state: Tuple[List[TraceAccumulator], int], trace: Trace
    ) -> Tuple[List[TraceAccumulator], int]:
        accumulators, next_index = state
        accumulators[rack_of[next_index]].add(trace)
        return accumulators, next_index + 1

    initial = ([TraceAccumulator(fanin=fanin) for _ in topology.racks], 0)
    accumulators, _ = shard_map_fold(
        worker, tasks, fold, initial, workers=workers, cache=cache
    )
    return tuple(accumulator.result() for accumulator in accumulators)


# ----------------------------------------------------------------------
# stage 2: hop traversal
# ----------------------------------------------------------------------
def _apply_hop(spec, trace: Trace, seed: int) -> HopTraversal:
    if isinstance(spec, SwitchSpec):
        return pps_hop(
            trace,
            pps_capacity=spec.pps_capacity,
            queue_packets=spec.queue_packets,
            service_cv=spec.service_cv,
            seed=derive_seed(seed, f"facilitynet-hop:{spec.name}"),
        )
    if isinstance(spec, LinkSpec):
        return bps_hop(trace, rate_bps=spec.rate_bps, buffer_bytes=spec.buffer_bytes)
    raise TypeError(f"unknown hop spec {spec!r}")


def _publish_hop(report: HopReport) -> None:
    """Passive per-hop telemetry: registry counters plus (when a trace
    session is active) one streamed JSONL row per hop traversal."""
    metrics = obs.registry()
    metrics.counter("facilitynet.offered").inc(report.offered)
    metrics.counter("facilitynet.forwarded").inc(report.forwarded)
    metrics.counter("facilitynet.dropped").inc(report.dropped)
    metrics.histogram("facilitynet.hop_mean_delay_s").observe(
        report.mean_delay_s
    )
    session = obs.current_session()
    if session is not None:
        session.stream("facilitynet_hops").write(
            {
                "hop": report.name,
                "tier": report.tier,
                "offered": report.offered,
                "forwarded": report.forwarded,
                "dropped": report.dropped,
                "loss_rate": report.loss_rate,
                "offered_payload_bytes": report.offered_payload_bytes,
                "forwarded_payload_bytes": report.forwarded_payload_bytes,
                "mean_delay_s": report.mean_delay_s,
                "p99_delay_s": report.p99_delay_s,
                "max_delay_s": report.max_delay_s,
            }
        )
    # increment mode (total unknown: hop count depends on the topology
    # being swept) — watchers get liveness + rate, no ETA
    obs.progress("facilitynet.hops", hop=report.name, tier=report.tier)


def _report(spec, traversal: HopTraversal, start: float, end: float) -> HopReport:
    delays = traversal.delays()
    payload = traversal.ingress.payload_sizes.astype(np.float64)
    forwarded_payload = float(payload[traversal.fates == 1].sum())
    report = HopReport(
        name=spec.name,
        tier=spec.tier,
        offered=traversal.offered,
        forwarded=traversal.forwarded,
        dropped=traversal.dropped,
        offered_payload_bytes=float(payload.sum()),
        forwarded_payload_bytes=forwarded_payload,
        mean_delay_s=float(delays.mean()) if delays.size else 0.0,
        p99_delay_s=float(np.percentile(delays, 99.0)) if delays.size else 0.0,
        max_delay_s=float(delays.max()) if delays.size else 0.0,
        series=traversal.series(start, end),
    )
    _publish_hop(report)
    return report


@dataclass
class FabricTraversal:
    """Racks + core done; the uplink still pending.

    Lets a sweep that varies only the uplink (the oversubscription
    curves of :mod:`repro.facilitynet.report`) pay the pure-Python rack
    and core FIFO traversals — the dominant hop cost — exactly once.
    """

    start: float
    end: float
    end_pad: float
    reports: Tuple[HopReport, ...]
    core_egress: Trace


def run_fabric(
    topology: FacilityTopology,
    ingress: Tuple[Trace, ...],
    start: float,
    end: float,
    seed: int = 0,
) -> FabricTraversal:
    """Walk rack ingress traces through the ToR switches and the core.

    Hop series bins cover ``[start, end_pad)`` where the pad absorbs
    departures queued past the window's edge.
    """
    if len(ingress) != topology.n_racks:
        raise ValueError(
            f"{len(ingress)} ingress traces for {topology.n_racks} racks"
        )
    # departures can land past the arrival window; pad the bin range so
    # downstream hops' series share one shape
    horizon = float(end)
    for trace in ingress:
        if len(trace):
            horizon = max(horizon, float(trace.timestamps[-1]))
    end_pad = float(np.ceil(horizon + 1.0))

    reports: List[HopReport] = []
    rack_egresses: List[Trace] = []
    for rack, trace in zip(topology.racks, ingress):
        with obs.span("facilitynet.hop", hop=rack.switch.name, tier="rack"):
            traversal = _apply_hop(rack.switch, trace, seed)
            reports.append(_report(rack.switch, traversal, start, end_pad))
            rack_egresses.append(traversal.egress())

    core_ingress = kway_merge_traces(rack_egresses)
    del rack_egresses
    with obs.span("facilitynet.hop", hop=topology.core.name, tier="core"):
        core_traversal = _apply_hop(topology.core, core_ingress, seed)
        reports.append(_report(topology.core, core_traversal, start, end_pad))
    return FabricTraversal(
        start=float(start),
        end=float(end),
        end_pad=end_pad,
        reports=tuple(reports),
        core_egress=core_traversal.egress(),
    )


def finish_uplink(
    topology: FacilityTopology,
    fabric: FabricTraversal,
    keep_delivered: bool = False,
) -> PipelineResult:
    """Push a fabric traversal's core egress through ``topology.uplink``.

    The fabric must have been produced by an identically-provisioned
    rack/core tree; only the uplink spec may differ between calls.
    """
    with obs.span(
        "facilitynet.hop", hop=topology.uplink.name, tier="uplink"
    ):
        uplink_traversal = bps_hop(
            fabric.core_egress,
            rate_bps=topology.uplink.rate_bps,
            buffer_bytes=topology.uplink.buffer_bytes,
        )
        report = _report(
            topology.uplink, uplink_traversal, fabric.start, fabric.end_pad
        )
    delivered = uplink_traversal.egress() if keep_delivered else None
    return PipelineResult(
        start=fabric.start,
        end=fabric.end,
        hops=fabric.reports + (report,),
        delivered=delivered,
    )


def run_hops(
    topology: FacilityTopology,
    ingress: Tuple[Trace, ...],
    start: float,
    end: float,
    seed: int = 0,
    keep_delivered: bool = False,
) -> PipelineResult:
    """Walk pre-merged rack ingress traces through the topology tree.

    Deterministic given its inputs — reusing one set of ingress traces
    across many candidate topologies (the oversubscription sweep) skips
    re-simulating the fleet.
    """
    fabric = run_fabric(topology, ingress, start, end, seed=seed)
    return finish_uplink(topology, fabric, keep_delivered=keep_delivered)


class FacilityPipeline:
    """One fleet pushed through one facility topology, window by window.

    Caches rack ingress traces per ``(start, end)`` window so repeated
    runs (or sweeps over sibling topologies via :func:`run_hops`) pay
    the fleet simulation once.  ``assignments`` switches every window to
    endogenous ingress (see :func:`rack_ingress_traces`).
    """

    def __init__(
        self,
        fleet: FleetProfile,
        topology: FacilityTopology,
        cache: Optional[ShardCache] = None,
        assignments: Optional[Tuple[SessionTable, ...]] = None,
    ) -> None:
        if topology.n_servers != fleet.n_servers:
            raise ValueError(
                f"topology houses {topology.n_servers} servers but the fleet "
                f"has {fleet.n_servers}"
            )
        self.fleet = fleet
        self.topology = topology
        self.cache = cache
        self.assignments = assignments
        self._ingress: dict = {}

    def ingress(
        self,
        start: float,
        end: float,
        workers: Optional[int] = None,
        fanin: int = 8,
    ) -> Tuple[Trace, ...]:
        """Per-rack merged ingress for the window (cached in memory, and
        on disk when a :class:`~repro.fleet.cache.ShardCache` is wired)."""
        key = (float(start), float(end))
        if key not in self._ingress:
            self._ingress[key] = rack_ingress_traces(
                self.fleet,
                self.topology,
                start,
                end,
                workers=workers,
                fanin=fanin,
                cache=self.cache,
                assignments=self.assignments,
            )
        return self._ingress[key]

    def run(
        self,
        start: float,
        end: float,
        workers: Optional[int] = None,
        fanin: int = 8,
        keep_delivered: bool = False,
    ) -> PipelineResult:
        """Simulate the window and walk it through every hop."""
        ingress = self.ingress(start, end, workers=workers, fanin=fanin)
        return run_hops(
            self.topology,
            ingress,
            start,
            end,
            seed=self.fleet.seed,
            keep_delivered=keep_delivered,
        )

    def clear_caches(self) -> None:
        """Drop cached ingress windows."""
        self._ingress.clear()
