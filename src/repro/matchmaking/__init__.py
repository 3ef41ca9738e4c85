"""Fleet-level closed loop: shared player pool, pluggable server selection.

The paper's provisioning story hinges on players, not links: a saturated
server stays pinned at capacity because the population refills it as
fast as sessions churn.  This package turns the fleet from N independent
replicas into one coupled facility:

* :mod:`repro.matchmaking.pool` — :class:`PoolConfig`: a finite,
  diurnally modulated player pool (idle → attempting → playing → idle)
  whose arrival stream is drained by admissions and refilled by churn —
  facility load becomes *endogenous* to placement decisions; players
  carry per-id traits including a region drawn from a
  :class:`RegionProfile`;
* :mod:`repro.matchmaking.rtt` — :class:`RttMatrix`: the seeded
  region×server round-trip geometry (geodesic-style base latencies,
  per-link-class jitter, deterministic server home regions) behind
  latency-aware placement, with stock :data:`RTT_PROFILES`
  (``global`` / ``continental`` / ``uniform``);
* :mod:`repro.matchmaking.policies` — pluggable
  :class:`SelectionPolicy` implementations: ``random``,
  ``least_loaded``, ``sticky`` (session affinity), ``capacity_aware``
  (admission control with retry/balk), ``lowest_rtt`` (ping-first) and
  ``latency_aware`` (α·free-slot share − β·normalised RTT, the
  occupancy-vs-QoE trade-off);
* :mod:`repro.matchmaking.engine` — the deterministic closed loop's
  front end: per-epoch pool/assignment streams and per-``(server,
  epoch)`` duration streams, producing per-server session assignments,
  occupancy traces and per-session RTTs (:class:`MatchmakingResult`);
* :mod:`repro.matchmaking.columnar` — the one engine: the epoch loop
  segmented at provable no-contention points and batched with numpy
  for the six stock policies, calling the policy's own ``select`` one
  attempt at a time everywhere else (and for any custom policy);
  ``tests/matchmaking_reference.py`` keeps the plain per-attempt loop
  as the oracle it is pinned bit-identical to;
* :mod:`repro.matchmaking.scenarios` — scripted demand:
  :class:`DemandScenario` sequences declarative :class:`DemandEvent`\\ s
  (:class:`FlashCrowd`, :class:`RegionalOutage`, :class:`PatchDayStorm`)
  that modulate per-epoch attempt hazards and server capacities; stock
  scenarios live in :data:`SCENARIOS` / :func:`make_scenario`.  QoE
  feedback (:class:`QoeConfig` on the pool: RTT-sensitive session
  durations, refusal-balk escalation) closes the loop the other way —
  congestion → bad QoE → churn → load relief.

Downstream wiring: a result's per-server session tables feed the
fleet's own per-server tasks (:class:`repro.fleet.execution.SeriesTask`
/ :class:`~repro.fleet.execution.WindowTask` with ``sessions=``), which
:class:`repro.workloads.scenarios.Scenario` turns into traffic with
:meth:`repro.gameserver.population.PopulationResult.from_sessions` —
sharded and cached like any fleet task, bit-identical for any worker
count and across warm/cold caches.
:meth:`repro.fleet.scenario.FleetScenario.from_matchmaking` drives the
fleet aggregates from a result;
:func:`repro.facilitynet.pipeline.rack_ingress_traces` accepts
``assignments`` for endogenous rack ingress; facility-level occupancy,
admission and latency metrics (``LatencyStats``, the occupancy-vs-RTT
frontier) live in :mod:`repro.core.facility`; the ``matchmaking``
experiment (``repro-experiments matchmaking --policy latency_aware
--pool-size 600 --rtt-profile global --alpha 1 --beta 1``) compares all
six policies under one demand process and RTT geometry.
"""

from repro.matchmaking.engine import (
    MatchmakingResult,
    MatchmakingSimulator,
    simulate_matchmaking,
)
from repro.matchmaking.policies import (
    POLICIES,
    CapacityAwarePolicy,
    LatencyAwarePolicy,
    LeastLoadedPolicy,
    LowestRttPolicy,
    RandomPolicy,
    SelectionPolicy,
    StickyPolicy,
    make_policy,
    validate_score_weight,
)
from repro.matchmaking.pool import (
    PlayerTraits,
    PoolConfig,
    QoeConfig,
    RegionProfile,
)
from repro.matchmaking.rtt import (
    RTT_PROFILES,
    RttMatrix,
    RttProfile,
    make_rtt_profile,
)
from repro.matchmaking.scenarios import (
    SCENARIOS,
    CompiledScenario,
    DemandEvent,
    DemandScenario,
    FlashCrowd,
    PatchDayStorm,
    RegionalOutage,
    make_scenario,
)

__all__ = [
    "POLICIES",
    "RTT_PROFILES",
    "SCENARIOS",
    "CapacityAwarePolicy",
    "CompiledScenario",
    "DemandEvent",
    "DemandScenario",
    "FlashCrowd",
    "LatencyAwarePolicy",
    "LeastLoadedPolicy",
    "LowestRttPolicy",
    "MatchmakingResult",
    "MatchmakingSimulator",
    "PatchDayStorm",
    "PlayerTraits",
    "PoolConfig",
    "QoeConfig",
    "RandomPolicy",
    "RegionProfile",
    "RegionalOutage",
    "RttMatrix",
    "RttProfile",
    "SelectionPolicy",
    "StickyPolicy",
    "make_policy",
    "make_rtt_profile",
    "make_scenario",
    "simulate_matchmaking",
    "validate_score_weight",
]
