"""The fleet-level closed loop: one player pool, many servers, one matchmaker.

:class:`MatchmakingSimulator` advances a shared
:class:`~repro.matchmaking.pool.PoolConfig` player pool through fixed
epochs and assigns every connection attempt to a server with a pluggable
:class:`~repro.matchmaking.policies.SelectionPolicy`.  Within an epoch,
departures and arrivals are processed in strict time order against the
live per-server occupancy — the matchmaker sees exactly the facility
state a real one would — and the slot-table rule is enforced at
admission: a full server refuses, and refusals feed back into the pool
(balk to idle, or retry under admission control).  Facility load is
therefore *endogenous*: per-server populations emerge from placement
decisions instead of being drawn per server.

Determinism and shard-friendliness:

* pool state advances in fixed epochs; every epoch ``k`` draws from
  fresh streams seeded ``derive_seed(seed, "matchmaking-pool:k")``
  (arrivals) and ``…-assign:k`` (policy choices), so a run is a pure
  function of ``(fleet, config, policy, seed)``;
* per-server randomness — session durations of sessions admitted to
  server ``s`` during epoch ``k`` — comes from a stream seeded per
  ``(server_index, epoch)``, so one server's draws never depend on what
  the matchmaker sent anywhere else;
* the epoch loop itself is cheap and runs in-process; the expensive
  per-server *traffic synthesis* over the resulting assignments is the
  sharded, cacheable stage (see :mod:`repro.matchmaking.traffic` and
  :meth:`repro.fleet.scenario.FleetScenario.from_matchmaking`) — results
  are bit-identical for any worker count and across warm/cold caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.core.facility import AdmissionStats, LatencyStats, OccupancyStats
from repro.fleet.profiles import FleetProfile
from repro.gameserver.population import SessionTable
from repro.matchmaking.columnar import run_columnar
from repro.matchmaking.policies import SelectionPolicy, make_policy
from repro.matchmaking.pool import PoolConfig
from repro.matchmaking.rtt import RttMatrix
from repro.matchmaking.scenarios import CompiledScenario, DemandScenario


@dataclass
class MatchmakingResult:
    """Everything one closed-loop run produced.

    ``sessions[s]`` holds server ``s``'s admitted sessions in start
    order — the per-server population traces that drive the fleet and
    facilitynet stages.  ``occupancy[s, k]`` is server ``s``'s
    instantaneous player count at the end of epoch ``k``.
    """

    fleet: FleetProfile
    config: PoolConfig
    policy: str
    seed: int
    capacities: Tuple[int, ...]
    sessions: Tuple[SessionTable, ...]
    occupancy: np.ndarray
    admission: AdmissionStats
    per_server_attempts: np.ndarray
    per_server_rejections: np.ndarray
    #: Admitted sessions whose server equals the player's previous one.
    repeat_assignments: int
    #: The region×server RTT geometry the run was placed against.
    rtt: Optional[RttMatrix] = None
    #: ``session_rtts[s][i]`` is the RTT (ms) of ``sessions[s][i]``.
    session_rtts: Tuple[np.ndarray, ...] = ()
    #: With QoE on: ``qoe_multipliers[s][i]`` is the duration multiplier
    #: applied to ``sessions[s][i]``; empty tuple when QoE is off.
    qoe_multipliers: Tuple[np.ndarray, ...] = ()
    #: With QoE on: refusals of players already refused at least once
    #: (the balk-escalation pressure); 0 when QoE is off.
    qoe_repeat_refusals: int = 0
    #: Name of the scripted demand scenario, if one drove the run.
    scenario_name: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def n_servers(self) -> int:
        """Number of servers in the facility."""
        return len(self.capacities)

    @property
    def n_epochs(self) -> int:
        """Number of epochs the pool advanced through."""
        return int(self.occupancy.shape[1])

    @property
    def rejection_rate(self) -> float:
        """Fraction of attempts refused (full server or admission control)."""
        return self.admission.rejection_rate

    @property
    def affinity_fraction(self) -> float:
        """Share of admitted sessions placed on the player's previous server."""
        if not self.admission.admitted:
            return 0.0
        return self.repeat_assignments / self.admission.admitted

    def occupancy_stats(self, after: float = 0.0) -> OccupancyStats:
        """Facility occupancy distribution over server-epochs.

        ``after`` drops epochs ending at or before that time — the same
        warmup cut the experiments apply — while always keeping at
        least the final epoch.
        """
        occupancy = self.occupancy
        if after > 0.0:
            start = min(
                int(math.ceil(after / self.config.epoch_length - 1e-9)),
                self.n_epochs - 1,
            )
            occupancy = occupancy[:, start:]
        return OccupancyStats.from_occupancy(
            occupancy, np.asarray(self.capacities)
        )

    def total_occupancy_series(self) -> np.ndarray:
        """Facility-wide occupancy per epoch (the recovery trajectory)."""
        return self.occupancy.sum(axis=0)

    def per_epoch_mean_rtt(self) -> np.ndarray:
        """Mean RTT (ms) of sessions *started* in each epoch; NaN when none.

        The RTT half of a recovery trajectory: after a regional outage
        the surviving servers are farther from the affected players, so
        this series spikes with the event and relaxes with recovery.
        """
        sums = np.zeros(self.n_epochs, dtype=float)
        counts = np.zeros(self.n_epochs, dtype=np.int64)
        for session_list, rtts in zip(self.sessions, self.session_rtts):
            if not session_list:
                continue
            epochs = np.minimum(
                (session_list.start / self.config.epoch_length).astype(np.int64),
                self.n_epochs - 1,
            )
            np.add.at(sums, epochs, np.asarray(rtts, dtype=float))
            np.add.at(counts, epochs, 1)
        with np.errstate(invalid="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)

    def all_session_rtts(self, after: float = 0.0) -> np.ndarray:
        """Admitted sessions' RTTs (ms), grouped by server index.

        Concatenated per server — within a server the admission order is
        kept, but the flat array is *not* globally chronological; it
        feeds order-invariant statistics (:meth:`latency_stats`).
        ``after`` drops sessions starting before that time, the warmup
        cut the experiment applies to occupancy claims.
        """
        if not self.session_rtts:
            return np.empty(0, dtype=float)
        parts = []
        for session_list, rtts in zip(self.sessions, self.session_rtts):
            rtts = np.asarray(rtts, dtype=float)
            if after > 0.0:
                rtts = rtts[session_list.start >= after]
            parts.append(rtts)
        return np.concatenate(parts)

    def latency_stats(
        self, percentile: float = 95.0, after: float = 0.0
    ) -> LatencyStats:
        """QoE summary of the admitted sessions' RTTs (optionally post-``after``)."""
        return LatencyStats.from_rtts(
            self.all_session_rtts(after=after), percentile=percentile
        )

    def describe(self, after: float = 0.0) -> str:
        """One-line summary: policy, admissions, rejection, occupancy, RTT.

        ``after`` applies the experiments' warmup cut to the
        utilization and RTT figures (admission counters stay run-wide),
        so the one-liner and the experiment tables agree; the default 0
        keeps the historical full-run summary byte-identical.
        """
        stats = self.occupancy_stats(after=after)
        line = (
            f"{self.policy:>14}: {self.admission.admitted} admitted / "
            f"{self.admission.attempts} attempts, "
            f"rejection {self.rejection_rate:6.1%}, "
            f"utilization {stats.utilization:5.1%}, "
            f"affinity {self.affinity_fraction:5.1%}"
        )
        if self.rtt is not None:
            line += f", rtt {self.latency_stats(after=after).mean_ms:6.1f} ms"
        return line


class MatchmakingSimulator:
    """Discrete-epoch closed-loop simulation of pool + matchmaker + fleet.

    Parameters
    ----------
    fleet:
        The facility profile; per-server capacities come from its
        derived :class:`~repro.gameserver.config.ServerProfile`\\ s.
    policy:
        A :class:`~repro.matchmaking.policies.SelectionPolicy` instance
        or registry name.
    config:
        The shared pool; defaults to
        :meth:`PoolConfig.for_fleet(fleet) <repro.matchmaking.pool.PoolConfig.for_fleet>`.
    seed:
        Master seed of the pool/assignment streams; defaults to the
        fleet's seed so one integer reproduces the whole closed loop.
    rtt:
        The facility's :class:`~repro.matchmaking.rtt.RttMatrix`;
        defaults to :meth:`RttMatrix.for_fleet
        <repro.matchmaking.rtt.RttMatrix.for_fleet>` over the pool's
        region profile and this simulator's seed, so every policy sees
        geometry and records per-session RTTs even when it places
        latency-blind.
    scenario:
        An optional :class:`~repro.matchmaking.scenarios.DemandScenario`
        of scripted demand events (flash crowd, regional outage,
        patch-day storm).  Compiled once against this pool/fleet shape;
        ``None`` (default) is the exact scenario-free code path.

    :meth:`run` executes the loop in :mod:`repro.matchmaking.columnar`:
    batched spans where they are provably exact for the six stock
    policy classes, and one ``select`` call per attempt elsewhere (for
    any other policy, on every attempt).
    """

    def __init__(
        self,
        fleet: FleetProfile,
        policy: Union[str, SelectionPolicy],
        config: Optional[PoolConfig] = None,
        seed: Optional[int] = None,
        rtt: Optional[RttMatrix] = None,
        scenario: Optional[DemandScenario] = None,
    ) -> None:
        self.fleet = fleet
        self.policy = make_policy(policy)
        self.config = config if config is not None else PoolConfig.for_fleet(fleet)
        self.seed = fleet.seed if seed is None else int(seed)
        if abs(self.config.horizon - fleet.horizon) > 1e-9:
            raise ValueError(
                f"pool horizon {self.config.horizon!r} must match the fleet "
                f"horizon {fleet.horizon!r} (assignments drive per-server "
                "traffic over the same window)"
            )
        self.rtt = (
            rtt
            if rtt is not None
            else RttMatrix.for_fleet(
                fleet, self.config.region_profile, seed=self.seed
            )
        )
        if self.rtt.region_names != self.config.region_profile.names:
            raise ValueError(
                f"RTT matrix regions {self.rtt.region_names!r} do not match "
                f"the pool's {self.config.region_profile.names!r}"
            )
        if self.rtt.n_servers != fleet.n_servers:
            raise ValueError(
                f"RTT matrix covers {self.rtt.n_servers} servers; "
                f"the fleet has {fleet.n_servers}"
            )
        self.scenario = scenario
        #: The scenario resolved to per-epoch modulation arrays; the
        #: engine consults this one object, never the raw events.
        self.compiled_scenario: Optional[CompiledScenario] = (
            None
            if scenario is None
            else scenario.compile(
                self.config.n_epochs,
                self.rtt.region_names,
                self.rtt.server_regions,
            )
        )

    # ------------------------------------------------------------------
    def run(self) -> MatchmakingResult:
        """Advance the pool over every epoch and return the assignments."""
        with obs.span(
            "matchmaking.run",
            policy=self.policy.name,
            seed=self.seed,
            servers=self.fleet.n_servers,
        ):
            result = run_columnar(self)
        self._publish(result)
        return result

    def _publish(self, result: MatchmakingResult) -> None:
        """Passive telemetry over a finished run — counters and artifact
        series read the result; RNG state is never touched, so traced
        and untraced runs stay bit-identical."""
        metrics = obs.registry()
        admission = result.admission
        metrics.counter("matchmaking.attempts").inc(admission.attempts)
        metrics.counter("matchmaking.admitted").inc(admission.admitted)
        metrics.counter("matchmaking.rejected").inc(admission.rejected)
        metrics.counter("matchmaking.balked").inc(admission.balked)
        metrics.counter("matchmaking.retried").inc(admission.retried)
        metrics.histogram("matchmaking.epoch_occupancy").observe_many(
            result.occupancy.sum(axis=0).tolist()
        )
        if result.config.qoe.enabled:
            # emitted only when the coupling is on, so off-run manifests
            # stay byte-identical to pre-QoE history
            mults = (
                np.concatenate(result.qoe_multipliers)
                if result.qoe_multipliers
                else np.empty(0)
            )
            metrics.counter("matchmaking.qoe.sessions").inc(int(mults.size))
            metrics.counter("matchmaking.qoe.sessions_shortened").inc(
                int(np.count_nonzero(mults < 1.0))
            )
            metrics.counter("matchmaking.qoe.repeat_refusals").inc(
                result.qoe_repeat_refusals
            )
            if mults.size:
                metrics.histogram(
                    "matchmaking.qoe.duration_multiplier"
                ).observe_many(mults.tolist())
        session = obs.current_session()
        if session is not None:
            # region geometry and per-server session RTTs ride along so
            # the read side (repro.obs.analysis) can rebuild occupancy ×
            # region × epoch heatmaps and the occupancy–RTT frontier
            # from the artifact directory alone
            mean_rtt = np.asarray(
                [
                    float(np.mean(rtts)) if rtts.size else np.nan
                    for rtts in result.session_rtts
                ]
            )
            session.save_arrays(
                f"matchmaking_occupancy_{result.policy}",
                occupancy=result.occupancy,
                capacities=np.asarray(result.capacities),
                epoch_length=np.asarray(result.config.epoch_length),
                seed=np.asarray(result.seed),
                server_regions=self.rtt.server_regions,
                region_names=np.asarray(self.rtt.region_names),
                mean_session_rtt_ms=mean_rtt,
                session_counts=np.asarray(
                    [rtts.size for rtts in result.session_rtts]
                ),
            )


def simulate_matchmaking(
    fleet: FleetProfile,
    policy: Union[str, SelectionPolicy],
    config: Optional[PoolConfig] = None,
    seed: Optional[int] = None,
    rtt: Optional[RttMatrix] = None,
    scenario: Optional[DemandScenario] = None,
    engine: str = "columnar",
) -> MatchmakingResult:
    """Convenience wrapper: run one :class:`MatchmakingSimulator`.

    ``engine`` is accepted only as ``"columnar"``, the one engine: the
    repo benchmark's provision workload still passes it.  Any other
    value raises :class:`ValueError`.
    """
    if engine != "columnar":
        raise ValueError(
            f"engine must be 'columnar' (the only engine), got {engine!r}"
        )
    return MatchmakingSimulator(
        fleet,
        policy,
        config=config,
        seed=seed,
        rtt=rtt,
        scenario=scenario,
    ).run()
