"""Facility-level provisioning analyses over fleets of servers.

Extends the paper's single-server provisioning story (§III-B, §IV) to a
hosting facility: what bandwidth/pps envelope must the facility uplink
carry, how much burstiness does statistical multiplexing absorb, and
what does the *Nth* server add to the peak — the marginal provisioning
cost that decides whether a facility scales linearly (the paper's
"good news") or worse.

Everything here consumes :class:`~repro.gameserver.fluid.FluidSeries`
(per-server and aggregate), staying generation-agnostic like the rest of
:mod:`repro.core`: the series may come from :mod:`repro.fleet`, from
single-server scenarios, or from binned real captures.
:class:`FacilityAnalysis` folds over per-server series one at a time, so
fleets stream through it without materialising every series together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.gameserver.fluid import FluidSeries
from repro.net.headers import OverheadModel, WIRE_OVERHEAD_UDP_V4


@dataclass(frozen=True)
class FacilityEnvelope:
    """Load envelope of one (usually aggregate) count series.

    ``peak_*`` is the chosen percentile of per-bin load (100 = max);
    provisioning to a high percentile rather than the absolute max is
    the standard engineering compromise the paper's §IV headroom
    discussion motivates.
    """

    duration: float
    percentile: float
    mean_pps: float
    peak_pps: float
    mean_bandwidth_bps: float
    peak_bandwidth_bps: float

    @classmethod
    def from_series(
        cls,
        series: FluidSeries,
        overhead_per_packet: Optional[int] = None,
        percentile: float = 99.0,
    ) -> "FacilityEnvelope":
        """Envelope of ``series`` under a per-packet wire overhead."""
        if not 0.0 < percentile <= 100.0:
            raise ValueError(f"percentile must lie in (0, 100]: {percentile!r}")
        if len(series) == 0:
            raise ValueError("empty series")
        if overhead_per_packet is None:
            overhead_per_packet = OverheadModel(WIRE_OVERHEAD_UDP_V4).per_packet
        pps = series.packet_rates()
        bps = series.bandwidth_bps(overhead_per_packet)
        return cls(
            duration=len(series) * series.bin_size,
            percentile=float(percentile),
            mean_pps=float(pps.mean()),
            peak_pps=float(np.percentile(pps, percentile)),
            mean_bandwidth_bps=float(bps.mean()),
            peak_bandwidth_bps=float(np.percentile(bps, percentile)),
        )

    @property
    def peak_to_mean_pps(self) -> float:
        """Burstiness of the packet load (peak over mean)."""
        if self.mean_pps <= 0:
            return 1.0
        return self.peak_pps / self.mean_pps

    def per_server_share(self, n_servers: int) -> Tuple[float, float]:
        """Even (pps, bps) peak share of each of ``n_servers`` servers."""
        if n_servers < 1:
            raise ValueError(f"n_servers must be >= 1: {n_servers!r}")
        return self.peak_pps / n_servers, self.peak_bandwidth_bps / n_servers

    @property
    def peak_to_mean_bandwidth(self) -> float:
        """Burstiness of the bandwidth (peak over mean)."""
        if self.mean_bandwidth_bps <= 0:
            return 1.0
        return self.peak_bandwidth_bps / self.mean_bandwidth_bps


@dataclass(frozen=True)
class MultiplexingGain:
    """Per-server vs aggregate burstiness (statistical multiplexing).

    Independent servers peak at different moments, so the aggregate's
    peak-to-mean ratio sits below the typical single server's.  ``gain``
    > 1 quantifies the provisioning headroom multiplexing buys; naive
    "sum of per-server peaks" provisioning overbuilds by ``overbuild``.
    """

    per_server_peak_to_mean: np.ndarray
    aggregate_peak_to_mean: float
    sum_of_peaks_bps: float
    aggregate_peak_bps: float

    @property
    def gain(self) -> float:
        """Mean per-server burstiness over aggregate burstiness."""
        if self.aggregate_peak_to_mean <= 0:
            return 1.0
        return float(self.per_server_peak_to_mean.mean() / self.aggregate_peak_to_mean)

    @property
    def overbuild(self) -> float:
        """Sum-of-peaks provisioning over true aggregate peak (>= ~1)."""
        if self.aggregate_peak_bps <= 0:
            return 1.0
        return self.sum_of_peaks_bps / self.aggregate_peak_bps


@dataclass(frozen=True)
class AdmissionStats:
    """Facility-level admission accounting (matchmaker or slot tables).

    Generation-agnostic counters: ``attempts`` splits into ``admitted``
    and ``rejected``; every rejection either ``retried`` (admission
    control scheduled a re-attempt) or ``balked`` (the player returned
    to the idle pool).
    """

    attempts: int
    admitted: int
    rejected: int
    balked: int = 0
    retried: int = 0

    def __post_init__(self) -> None:
        if min(self.attempts, self.admitted, self.rejected) < 0 or (
            min(self.balked, self.retried) < 0
        ):
            raise ValueError("admission counters must be non-negative")
        if self.admitted + self.rejected != self.attempts:
            raise ValueError(
                f"admitted ({self.admitted}) + rejected ({self.rejected}) "
                f"must equal attempts ({self.attempts})"
            )
        if self.balked + self.retried != self.rejected:
            raise ValueError(
                f"balked ({self.balked}) + retried ({self.retried}) "
                f"must equal rejected ({self.rejected})"
            )

    @property
    def rejection_rate(self) -> float:
        """Fraction of attempts refused."""
        return self.rejected / self.attempts if self.attempts else 0.0


@dataclass(frozen=True)
class OccupancyStats:
    """Occupancy distribution of a fleet over epochs.

    Built from an ``(n_servers, n_epochs)`` matrix of instantaneous
    player counts (e.g. :attr:`repro.matchmaking.MatchmakingResult.occupancy`)
    plus per-server capacities.  ``distribution[k]`` is the fraction of
    server-epochs spent at exactly ``k`` occupied slots.
    """

    mean_occupancy: float
    utilization: float
    full_fraction: float
    facility_full_fraction: float
    distribution: np.ndarray

    @classmethod
    def from_occupancy(
        cls, occupancy: np.ndarray, capacities: np.ndarray
    ) -> "OccupancyStats":
        """Summarise an ``(n_servers, n_epochs)`` occupancy matrix."""
        occupancy = np.asarray(occupancy, dtype=np.int64)
        capacities = np.asarray(capacities, dtype=np.int64)
        if occupancy.ndim != 2 or occupancy.shape[0] != capacities.size:
            raise ValueError(
                f"occupancy {occupancy.shape} does not match "
                f"{capacities.size} capacities"
            )
        if np.any(occupancy < 0):
            raise ValueError("occupancy counts must be non-negative")
        full = occupancy >= capacities[:, None]
        counts = np.bincount(
            occupancy.ravel(), minlength=int(capacities.max()) + 1
        )
        return cls(
            mean_occupancy=float(occupancy.mean()),
            utilization=float(
                occupancy.sum() / (capacities.sum() * occupancy.shape[1])
            ),
            full_fraction=float(full.mean()),
            facility_full_fraction=float(full.all(axis=0).mean()),
            distribution=counts / occupancy.size,
        )

    def quantile(self, q: float) -> int:
        """Smallest occupancy level holding at least fraction ``q`` below it."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must lie in [0, 1]: {q!r}")
        return int(np.searchsorted(np.cumsum(self.distribution), q))


@dataclass(frozen=True)
class LatencyStats:
    """Session-RTT distribution of one placement run (the QoE side).

    Built from the per-session RTTs a matchmaking run recorded (e.g.
    :meth:`repro.matchmaking.MatchmakingResult.latency_stats`): how far
    from their servers did admitted players actually end up?  ``p_ms``
    is the chosen ``percentile`` of session RTT — the tail a
    latency-sensitive operator provisions against, the way
    :class:`FacilityEnvelope` provisions bandwidth against a percentile
    of load.  An empty run (no admissions) reports zeros.
    """

    count: int
    percentile: float
    mean_ms: float
    median_ms: float
    p_ms: float
    max_ms: float

    @classmethod
    def from_rtts(
        cls, rtts: np.ndarray, percentile: float = 95.0
    ) -> "LatencyStats":
        """Summarise a flat array of per-session RTTs (milliseconds)."""
        if not 0.0 < percentile <= 100.0:
            raise ValueError(f"percentile must lie in (0, 100]: {percentile!r}")
        rtts = np.asarray(rtts, dtype=float)
        if rtts.ndim != 1:
            raise ValueError(f"rtts must be 1-D, got shape {rtts.shape}")
        if rtts.size == 0:
            return cls(
                count=0,
                percentile=float(percentile),
                mean_ms=0.0,
                median_ms=0.0,
                p_ms=0.0,
                max_ms=0.0,
            )
        if np.any(rtts < 0):
            raise ValueError("session RTTs must be non-negative")
        return cls(
            count=int(rtts.size),
            percentile=float(percentile),
            mean_ms=float(rtts.mean()),
            median_ms=float(np.median(rtts)),
            p_ms=float(np.percentile(rtts, percentile)),
            max_ms=float(rtts.max()),
        )


@dataclass(frozen=True)
class RecoveryStats:
    """Recovery trajectory of one per-epoch series around a demand event.

    Scripted scenarios (:mod:`repro.matchmaking.scenarios`) perturb the
    closed loop at known epochs; steady-state summaries average the
    perturbation away, so policies are scored on the *trajectory*
    instead.  ``baseline`` is the mean of the pre-event window
    ``[0, event_start)``; ``overshoot``/``undershoot`` are the largest
    excursions above/below it from ``event_start`` on (both reported
    ≥ 0); ``time_to_baseline`` counts epochs after ``event_end`` until
    the series first stays inside the tolerance band for
    ``settle_epochs`` consecutive epochs, or ``None`` if it never
    settles within the horizon.  NaN epochs (e.g. a mean-RTT series
    over epochs with no admissions) carry no evidence: they are
    excluded from the baseline, ignored by the excursion maxima and
    treated as in-band by the settle scan.
    """

    baseline: float
    overshoot: float
    undershoot: float
    time_to_baseline: Optional[int]
    event_start: int
    event_end: int
    tolerance: float
    settle_epochs: int

    @property
    def peak_deviation(self) -> float:
        """Largest absolute excursion from the baseline."""
        return max(self.overshoot, self.undershoot)

    @classmethod
    def from_series(
        cls,
        series: np.ndarray,
        event_start: int,
        event_end: int,
        tolerance: float = 0.1,
        settle_epochs: int = 3,
    ) -> "RecoveryStats":
        """Score a 1-D per-epoch series against an event window.

        ``tolerance`` is a fraction of ``|baseline|`` (an absolute band
        when the baseline is zero).  ``event_start`` must leave a
        non-empty pre-event window and ``event_end`` may equal the
        series length (an event running to the horizon never recovers).
        """
        series = np.asarray(series, dtype=float)
        if series.ndim != 1:
            raise ValueError(f"series must be 1-D, got shape {series.shape}")
        n = series.size
        event_start = int(event_start)
        event_end = int(event_end)
        if not 1 <= event_start < n:
            raise ValueError(
                f"event_start must lie in [1, {n}), got {event_start!r} "
                "(the pre-event window supplies the baseline)"
            )
        if not event_start < event_end <= n:
            raise ValueError(
                f"event_end must lie in ({event_start}, {n}], "
                f"got {event_end!r}"
            )
        if not tolerance > 0.0:
            raise ValueError(f"tolerance must be positive: {tolerance!r}")
        settle_epochs = int(settle_epochs)
        if settle_epochs < 1:
            raise ValueError(
                f"settle_epochs must be at least 1, got {settle_epochs!r}"
            )
        pre = series[:event_start]
        if not np.any(np.isfinite(pre)):
            raise ValueError(
                "pre-event window holds no finite samples; "
                "no baseline to recover to"
            )
        baseline = float(np.nanmean(pre))
        band = tolerance * abs(baseline) if baseline != 0.0 else tolerance

        post = series[event_start:]
        deviation = post - baseline
        overshoot = float(np.nanmax(deviation, initial=0.0))
        undershoot = float(np.nanmax(-deviation, initial=0.0))

        in_band = ~(np.abs(series - baseline) > band)  # NaN counts as in-band
        time_to_baseline: Optional[int] = None
        run = 0
        for k in range(event_end, n):
            run = run + 1 if in_band[k] else 0
            if run >= settle_epochs:
                time_to_baseline = k - settle_epochs + 1 - event_end
                break
        return cls(
            baseline=baseline,
            overshoot=max(0.0, overshoot),
            undershoot=max(0.0, undershoot),
            time_to_baseline=time_to_baseline,
            event_start=event_start,
            event_end=event_end,
            tolerance=float(tolerance),
            settle_epochs=settle_epochs,
        )


def occupancy_rtt_frontier(
    points: Mapping[str, Tuple[float, float]]
) -> Tuple[str, ...]:
    """Pareto-efficient policies on the occupancy-vs-RTT trade-off.

    ``points`` maps a policy name to ``(utilization, mean session RTT
    ms)``.  A policy is on the frontier iff no other policy achieves at
    least its utilization at no more than its RTT with one of the two
    strictly better — the set an operator actually chooses from, since
    anything off the frontier gives up occupancy *and* QoE.  Returned in
    descending-utilization order (ties by ascending RTT, then name).
    """
    items = sorted(points.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))
    frontier = []
    for name, (utilization, rtt_ms) in items:
        dominated = any(
            other_util >= utilization
            and other_rtt <= rtt_ms
            and (other_util > utilization or other_rtt < rtt_ms)
            for other_name, (other_util, other_rtt) in points.items()
            if other_name != name
        )
        if not dominated:
            frontier.append(name)
    return tuple(frontier)


def policy_multiplexing_gain(
    reference: FacilityEnvelope, candidate: FacilityEnvelope
) -> float:
    """Burstiness improvement of ``candidate`` placement over ``reference``.

    The policy-vs-policy analogue of :class:`MultiplexingGain`: both
    envelopes see the same demand process, so the ratio of their
    peak-to-mean pps isolates what the *placement* policy did to the
    facility's burstiness.  Values above 1 mean the candidate policy
    (say ``least_loaded``) produced a smoother aggregate than the
    reference (say ``random``); below 1, a burstier one.
    """
    if candidate.peak_to_mean_pps <= 0:
        return 1.0
    return reference.peak_to_mean_pps / candidate.peak_to_mean_pps


class FacilityAnalysis:
    """Streaming fleet-level load analysis.

    Feed per-server :class:`FluidSeries` (index order) with
    :meth:`add_server` — or build in one call with :meth:`from_series` —
    then read the facility envelope, the multiplexing comparison, and
    the marginal provisioning curve.  Only the running aggregate and
    per-server *scalars* are retained, never all series at once.
    """

    def __init__(
        self,
        overhead_per_packet: Optional[int] = None,
        percentile: float = 99.0,
    ) -> None:
        if not 0.0 < percentile <= 100.0:
            raise ValueError(f"percentile must lie in (0, 100]: {percentile!r}")
        self.overhead_per_packet = (
            overhead_per_packet
            if overhead_per_packet is not None
            else OverheadModel(WIRE_OVERHEAD_UDP_V4).per_packet
        )
        self.percentile = float(percentile)
        self._aggregate: Optional[FluidSeries] = None
        self._per_server_mean_pps: List[float] = []
        self._per_server_peak_pps: List[float] = []
        self._per_server_mean_bps: List[float] = []
        self._per_server_peak_bps: List[float] = []
        self._prefix_peak_pps: List[float] = []
        self._prefix_peak_bps: List[float] = []

    @classmethod
    def from_series(
        cls,
        series: Iterable[FluidSeries],
        overhead_per_packet: Optional[int] = None,
        percentile: float = 99.0,
    ) -> "FacilityAnalysis":
        """Fold a whole iterable of per-server series."""
        analysis = cls(overhead_per_packet=overhead_per_packet, percentile=percentile)
        for item in series:
            analysis.add_server(item)
        return analysis

    # ------------------------------------------------------------------
    @property
    def n_servers(self) -> int:
        """Servers folded in so far."""
        return len(self._per_server_mean_pps)

    def add_server(self, series: FluidSeries) -> "FacilityAnalysis":
        """Fold one server's series into the facility (returns self)."""
        from repro.fleet.aggregate import sum_fluid_series

        envelope = FacilityEnvelope.from_series(
            series, self.overhead_per_packet, self.percentile
        )
        self._per_server_mean_pps.append(envelope.mean_pps)
        self._per_server_peak_pps.append(envelope.peak_pps)
        self._per_server_mean_bps.append(envelope.mean_bandwidth_bps)
        self._per_server_peak_bps.append(envelope.peak_bandwidth_bps)
        self._aggregate = sum_fluid_series(self._aggregate, series)
        prefix = FacilityEnvelope.from_series(
            self._aggregate, self.overhead_per_packet, self.percentile
        )
        self._prefix_peak_pps.append(prefix.peak_pps)
        self._prefix_peak_bps.append(prefix.peak_bandwidth_bps)
        return self

    def _require_servers(self) -> None:
        if not self.n_servers:
            raise ValueError("no servers added")

    # ------------------------------------------------------------------
    @property
    def aggregate(self) -> FluidSeries:
        """The facility-wide series accumulated so far."""
        self._require_servers()
        return self._aggregate

    def envelope(self) -> FacilityEnvelope:
        """The facility uplink envelope."""
        return FacilityEnvelope.from_series(
            self.aggregate, self.overhead_per_packet, self.percentile
        )

    @property
    def per_server_mean_pps(self) -> np.ndarray:
        """Mean pps of each server, index order."""
        return np.asarray(self._per_server_mean_pps)

    def multiplexing(self) -> MultiplexingGain:
        """Per-server vs aggregate burstiness comparison."""
        self._require_servers()
        mean_pps = self.per_server_mean_pps
        peak_pps = np.asarray(self._per_server_peak_pps)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(mean_pps > 0, peak_pps / np.maximum(mean_pps, 1e-12), 1.0)
        envelope = self.envelope()
        return MultiplexingGain(
            per_server_peak_to_mean=ratios,
            aggregate_peak_to_mean=envelope.peak_to_mean_pps,
            sum_of_peaks_bps=float(np.sum(self._per_server_peak_bps)),
            aggregate_peak_bps=envelope.peak_bandwidth_bps,
        )

    # ------------------------------------------------------------------
    def provisioning_curve_bps(self) -> np.ndarray:
        """Facility peak bandwidth after each server joins (prefix fleets).

        Entry ``k`` is the uplink a facility of servers ``0..k`` must
        provision (at this analysis's percentile).
        """
        self._require_servers()
        return np.asarray(self._prefix_peak_bps)

    def marginal_cost_bps(self) -> np.ndarray:
        """Peak-bandwidth increment each successive server adds.

        Entry ``k`` is what admitting server ``k`` cost the uplink; under
        the paper's linearity claim these hover around the per-server
        mean demand, and multiplexing keeps them *below* per-server
        peaks.
        """
        curve = self.provisioning_curve_bps()
        return np.diff(curve, prepend=0.0)


def oversubscribed_capacity(
    envelope: FacilityEnvelope, ratio: float
) -> Tuple[float, float]:
    """(pps, bps) capacity of a concentration point provisioned at ``ratio``.

    An oversubscription ratio of R means the stage carries 1/R of the
    envelope's peak demand: R <= 1 leaves headroom above every counted
    bin, R > 1 guarantees sustained overload at the peaks.  This is the
    sizing rule :mod:`repro.facilitynet.topology` uses to turn facility
    envelopes into rack/core/uplink capacities.
    """
    if ratio <= 0:
        raise ValueError(f"oversubscription ratio must be positive: {ratio!r}")
    return envelope.peak_pps / ratio, envelope.peak_bandwidth_bps / ratio
