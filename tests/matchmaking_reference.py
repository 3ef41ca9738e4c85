"""Test oracle: the matchmaking closed loop, one attempt at a time.

The production engine (:mod:`repro.matchmaking.columnar`) batches the
epoch loop wherever it can prove the batch exact.  This module keeps the
plain per-attempt loop it must reproduce: a departure heap, one
``policy.select`` call per connection attempt, the slot-table refusal,
and retry-or-balk.  It only needs to be obviously correct, not fast; the
parity suites compare every :class:`MatchmakingResult` field of the two
bit for bit.  It publishes no telemetry.

``tests/`` is not a package: test modules import this file by name (the
test directory is on ``sys.path`` under pytest), and the benchmark suite
loads it by path.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.facility import AdmissionStats
from repro.fleet.profiles import FleetProfile
from repro.gameserver.population import SessionRecord, SessionTable
from repro.matchmaking import (
    MatchmakingResult,
    MatchmakingSimulator,
    PlayerTraits,
    PoolConfig,
    RttMatrix,
    SelectionPolicy,
)
from repro.matchmaking.scenarios import DemandScenario
from repro.sim.random import derive_seed, sample_lognormal

#: Player lifecycle states.
_IDLE, _WAITING, _PLAYING = 0, 1, 2


def simulate_reference(
    fleet: FleetProfile,
    policy: Union[str, SelectionPolicy],
    config: Optional[PoolConfig] = None,
    seed: Optional[int] = None,
    rtt: Optional[RttMatrix] = None,
    scenario: Optional[DemandScenario] = None,
) -> MatchmakingResult:
    """:func:`repro.matchmaking.simulate_matchmaking`, on the oracle loop."""
    return run_reference(
        MatchmakingSimulator(
            fleet, policy, config=config, seed=seed, rtt=rtt, scenario=scenario
        )
    )


def run_reference(sim: MatchmakingSimulator) -> MatchmakingResult:
    """Run ``sim``'s closed loop one connection attempt at a time."""
    config = sim.config
    fleet = sim.fleet
    policy = sim.policy
    profiles = fleet.server_profiles()
    capacities = np.asarray([p.max_players for p in profiles], dtype=np.int64)
    n_servers = capacities.size
    n_epochs = config.n_epochs
    horizon = config.horizon

    traits = PlayerTraits.draw(config, sim.seed)
    rtt_rows = [sim.rtt.row(r) for r in range(sim.rtt.n_regions)]
    player_region = traits.region_index
    player_state = np.zeros(config.pool_size, dtype=np.int8)
    last_server = np.full(config.pool_size, -1, dtype=np.int64)

    occupancy = np.zeros(n_servers, dtype=np.int64)
    occupancy_trace = np.zeros((n_servers, n_epochs), dtype=np.int64)
    sessions: List[List[SessionRecord]] = [[] for _ in range(n_servers)]
    session_rtts: List[List[float]] = [[] for _ in range(n_servers)]
    per_server_attempts = np.zeros(n_servers, dtype=np.int64)
    per_server_rejections = np.zeros(n_servers, dtype=np.int64)

    # QoE coupling state: deterministic functions of already-drawn
    # randomness (multipliers and thresholds, never extra draws)
    compiled = sim.compiled_scenario
    qoe = config.qoe
    qoe_on = qoe.enabled
    refusal_counts = (
        np.zeros(config.pool_size, dtype=np.int64) if qoe_on else None
    )
    qoe_multipliers: List[List[float]] = [[] for _ in range(n_servers)]
    qoe_repeat_refusals = 0

    #: (end_time, server, player) min-heap of active sessions.
    departures: List[Tuple[float, int, int]] = []
    #: (retry_time, player) min-heap of pending retries.
    retries: List[Tuple[float, int]] = []

    attempts = admitted = rejected = balked = retried = 0
    repeat_assignments = 0
    next_session_id = 0

    def drain_departures(until: float, strict: bool = False) -> None:
        """Finish sessions ending before ``until`` (``<=`` unless strict).

        Strict drains (the epoch-boundary sample) keep sessions that
        end exactly at ``until`` alive; non-strict drains (before
        each attempt) finish them, so a slot freed at the attempt's
        own timestamp is already available to the matchmaker.
        """
        while departures and (
            departures[0][0] < until
            if strict
            else departures[0][0] <= until
        ):
            _, server, player = heapq.heappop(departures)
            occupancy[server] -= 1
            player_state[player] = _IDLE

    for epoch in range(n_epochs):
        t0 = epoch * config.epoch_length
        t1 = min(t0 + config.epoch_length, horizon)
        rng_pool = np.random.default_rng(
            derive_seed(sim.seed, f"matchmaking-pool:{epoch}")
        )
        rng_assign = np.random.default_rng(
            derive_seed(sim.seed, f"matchmaking-assign:{epoch}")
        )
        duration_streams: Dict[int, np.random.Generator] = {}
        # scenario modulation: effective capacities (downed servers
        # stop admitting, sessions play out) and forced downloads
        eff_cap = (
            capacities
            if compiled is None
            else compiled.capacities_at(epoch, capacities)
        )
        in_storm = compiled is not None and compiled.forces_downloads(epoch)

        # -- fresh arrivals from the idle pool --------------------------
        idle_players = np.flatnonzero(player_state == _IDLE)
        hazard = config.attempt_rate_at(0.5 * (t0 + t1))
        draws = rng_pool.uniform(size=idle_players.size)
        if compiled is not None:
            mask = draws < compiled.attempt_probabilities(
                epoch, hazard, t1 - t0, player_region[idle_players]
            )
        else:
            p_attempt = 1.0 - math.exp(-hazard * (t1 - t0))
            mask = draws < p_attempt
        arrivals = [
            (t0 + offset * (t1 - t0), int(player))
            for player, offset in zip(
                idle_players[mask],
                rng_pool.uniform(size=int(mask.sum())),
            )
        ]
        # -- retries that came due this epoch ---------------------------
        # retries are epoch-granular: one scheduled mid-epoch for a
        # time already behind the pool clock re-attempts at this
        # epoch's start, keeping admissions chronological
        while retries and retries[0][0] < t1:
            retry_at, player = heapq.heappop(retries)
            arrivals.append((max(retry_at, t0), player))
        arrivals.sort()
        # attempting players leave the idle pool for this epoch
        for _, player in arrivals:
            player_state[player] = _WAITING

        # -- chronological admission against live occupancy -------------
        for when, player in arrivals:
            drain_departures(when)
            attempts += 1
            previous = int(last_server[player])
            rtt_row = rtt_rows[player_region[player]]
            chosen = policy.select(
                occupancy, eff_cap, previous, rng_assign, rtt=rtt_row
            )
            if chosen is not None:
                per_server_attempts[chosen] += 1
            if chosen is None or occupancy[chosen] >= eff_cap[chosen]:
                rejected += 1
                if chosen is not None:
                    per_server_rejections[chosen] += 1
                if qoe_on:
                    # escalation reuses the same uniform draw with a
                    # lower threshold; counted before incrementing
                    prior = int(refusal_counts[player])
                    refusal_counts[player] += 1
                    if prior:
                        qoe_repeat_refusals += 1
                    retry_p = qoe.retry_probability(
                        config.retry_probability, prior
                    )
                else:
                    retry_p = config.retry_probability
                wants_retry = (
                    policy.retry_on_reject
                    and rng_assign.uniform() < retry_p
                )
                if wants_retry:
                    retry_at = when + float(
                        rng_assign.exponential(config.retry_delay_mean)
                    )
                    if retry_at < horizon:
                        heapq.heappush(retries, (retry_at, player))
                        retried += 1
                        continue
                balked += 1
                player_state[player] = _IDLE
                continue
            # admitted: duration from the (server, epoch) stream
            if chosen not in duration_streams:
                duration_streams[chosen] = np.random.default_rng(
                    derive_seed(
                        sim.seed, f"matchmaking-server:{chosen}:{epoch}"
                    )
                )
            raw = float(
                sample_lognormal(
                    duration_streams[chosen],
                    config.session_duration_mean,
                    config.session_duration_cv,
                )
            )
            rtt_ms = float(rtt_row[chosen])
            if qoe_on:
                # the multiplier scales the *raw* draw, before the
                # minimum clamp, so duration >= session_duration_min
                # still holds
                multiplier = qoe.duration_multiplier(rtt_ms)
                raw *= multiplier
                qoe_multipliers[chosen].append(multiplier)
                refusal_counts[player] = 0
            duration = max(config.session_duration_min, raw)
            end = min(when + duration, horizon)
            heapq.heappush(departures, (end, chosen, player))
            occupancy[chosen] += 1
            sessions[chosen].append(
                SessionRecord(
                    session_id=next_session_id,
                    client_id=player,
                    start=when,
                    end=end,
                    rate_multiplier=float(traits.rate_multipliers[player]),
                    link_class=traits.link_classes[traits.link_class_index[player]],
                    wants_download=bool(traits.wants_download[player])
                    or in_storm,
                )
            )
            session_rtts[chosen].append(rtt_ms)
            next_session_id += 1
            admitted += 1
            if chosen == previous:
                repeat_assignments += 1
            last_server[player] = chosen
            player_state[player] = _PLAYING

        # occupancy sampled just before the epoch boundary, so sessions
        # truncated at the horizon still count in the final column
        drain_departures(t1, strict=True)
        occupancy_trace[:, epoch] = occupancy

    return MatchmakingResult(
        fleet=fleet,
        config=config,
        policy=policy.name,
        seed=sim.seed,
        capacities=tuple(int(c) for c in capacities),
        sessions=tuple(
            SessionTable.from_rows(rows, traits.link_classes) for rows in sessions
        ),
        occupancy=occupancy_trace,
        admission=AdmissionStats(
            attempts=attempts,
            admitted=admitted,
            rejected=rejected,
            balked=balked,
            retried=retried,
        ),
        per_server_attempts=per_server_attempts,
        per_server_rejections=per_server_rejections,
        repeat_assignments=repeat_assignments,
        rtt=sim.rtt,
        session_rtts=tuple(
            np.asarray(rtts, dtype=float) for rtts in session_rtts
        ),
        qoe_multipliers=(
            tuple(np.asarray(mults, dtype=float) for mults in qoe_multipliers)
            if qoe_on
            else ()
        ),
        qoe_repeat_refusals=qoe_repeat_refusals,
        scenario_name=sim.scenario.name if sim.scenario is not None else None,
    )
