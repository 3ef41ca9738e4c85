"""Experiment X10 — QoE-coupled churn: recovery from scripted demand.

The matchmaking experiment scores policies on *steady state*; real
facilities are judged on how they absorb shocks.  This experiment turns
on the QoE coupling (:class:`repro.matchmaking.QoeConfig`: RTT-shortened
sessions, refusal-balk escalation — congestion → bad QoE → churn → load
relief) and drives the six selection policies through one scripted
:class:`~repro.matchmaking.DemandScenario` (default ``flash_crowd``;
``--scenario`` swaps in ``regional_outage`` or ``patch_day``).  Policies
see the *same* demand process, geometry and scripted events, so they
differ only in how placement shapes the excursion and the recovery:

* the scripted event visibly perturbs facility occupancy (peak
  deviation beyond the recovery tolerance band);
* recovery trajectories discriminate: time-to-baseline / overshoot
  (:class:`repro.core.facility.RecoveryStats`) differ across policies;
* the QoE loop actually bites: mean session-duration multiplier drops
  below 1 under load, and the coupled run diverges from a qoe-off run
  of the same seed/scenario;
* under capacity modulation occupancy may exceed *effective* capacity
  while sessions drain, but never the configured slot counts.

The run is deliberately sub-saturated (demand ratio below 1) so the
event stands out against slack baseline occupancy.  ``repro-experiments
churn --scenario NAME --qoe-duration-floor F --qoe-rtt-good MS
--qoe-rtt-scale MS --qoe-balk-escalation F`` reshapes the coupling.

Window/scaling policy: 6 heterogeneous servers over 3600 s in 60 s
epochs, demand ratio 0.85, 300 s mean sessions, 4-region ``global``
RTT geometry; recovery judged after a 10-epoch warmup.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.facility import RecoveryStats
from repro.core.report import ComparisonRow
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.fleet.profiles import hosting_facility
from repro.matchmaking import (
    POLICIES,
    PoolConfig,
    QoeConfig,
    RttMatrix,
    make_scenario,
    simulate_matchmaking,
)

EXPERIMENT_ID = "churn"
TITLE = "QoE-coupled churn: recovery from scripted demand events"
FACILITY_SERVERS = 6
HORIZON_S = 3600.0
EPOCH_S = 60.0
#: Offered load over facility capacity — below 1 leaves slack, so the
#: scripted event (not saturation) dominates the occupancy trajectory.
DEMAND_RATIO = 0.85
#: Mean session duration (s) — short enough that churn responds within
#: the event window.
SESSION_MEAN_S = 300.0
#: Epochs discarded before the recovery baseline (pool fill-up).
WARMUP_EPOCHS = 10
#: Recovery band as a fraction of baseline, and epochs-in-band to settle.
RECOVERY_TOLERANCE = 0.1
SETTLE_EPOCHS = 3
#: Policy whose run anchors the single-policy claims (perturbation
#: visibility, QoE bite).
REFERENCE_POLICY = "least_loaded"

def _mean_multiplier(result) -> float:
    """Mean QoE duration multiplier over every admitted session."""
    mults = [m for m in result.qoe_multipliers if m.size]
    if not mults:
        return 1.0
    return float(np.concatenate(mults).mean())


def _recovery(series: np.ndarray, scenario, n_epochs: int) -> RecoveryStats:
    """Score a per-epoch series against the scenario's event window.

    The first ``WARMUP_EPOCHS`` epochs are the pool fill-up transient,
    not baseline, so the series and event indices are shifted past them.
    """
    return RecoveryStats.from_series(
        series[WARMUP_EPOCHS:],
        event_start=scenario.first_epoch - WARMUP_EPOCHS,
        event_end=min(scenario.last_epoch, n_epochs) - WARMUP_EPOCHS,
        tolerance=RECOVERY_TOLERANCE,
        settle_epochs=SETTLE_EPOCHS,
    )


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Sweep the six policies over one scripted, QoE-coupled scenario."""
    fleet = hosting_facility(
        n_servers=FACILITY_SERVERS, duration=HORIZON_S, seed=seed
    )
    qoe = config.qoe_config()
    # flat demand (no diurnal drift): the recovery baseline must be
    # stationary for time-to-baseline to mean anything over one hour
    pool = PoolConfig.for_fleet(
        fleet,
        demand_ratio=DEMAND_RATIO,
        epoch_length=EPOCH_S,
        session_duration_mean=SESSION_MEAN_S,
        diurnal_amplitude=0.0,
    ).replace(qoe=qoe)
    scenario = make_scenario(config.scenario, pool.n_epochs)
    if scenario.first_epoch <= WARMUP_EPOCHS:
        raise ValueError(
            f"scenario {config.scenario!r} starts at epoch "
            f"{scenario.first_epoch}, inside the {WARMUP_EPOCHS}-epoch "
            "warmup — no pre-event baseline to recover to"
        )
    rtt = RttMatrix.for_fleet(fleet, pool.region_profile, seed=seed)

    results: Dict[str, object] = {}
    occupancy_recovery: Dict[str, RecoveryStats] = {}
    rtt_recovery: Dict[str, RecoveryStats] = {}
    for name in POLICIES:
        result = simulate_matchmaking(
            fleet, name, pool, rtt=rtt, scenario=scenario
        )
        results[name] = result
        occupancy_recovery[name] = _recovery(
            result.total_occupancy_series().astype(float),
            scenario,
            pool.n_epochs,
        )
        rtt_recovery[name] = _recovery(
            result.per_epoch_mean_rtt(), scenario, pool.n_epochs
        )

    reference = results[REFERENCE_POLICY]
    ref_recovery = occupancy_recovery[REFERENCE_POLICY]

    # the coupling must actually change the trajectory: same seed, same
    # scenario, QoE off
    uncoupled = simulate_matchmaking(
        fleet,
        REFERENCE_POLICY,
        pool.replace(qoe=QoeConfig()),
        rtt=rtt,
        scenario=scenario,
    )
    coupling_bites = not np.array_equal(
        uncoupled.occupancy, reference.occupancy
    )

    capacity_respected = all(
        bool(np.all(r.occupancy <= np.asarray(r.capacities)[:, None]))
        for r in results.values()
    )
    distinct_recoveries = {
        (
            occupancy_recovery[name].time_to_baseline,
            round(occupancy_recovery[name].overshoot, 9),
            round(occupancy_recovery[name].undershoot, 9),
        )
        for name in POLICIES
    }

    rows: List[ComparisonRow] = [
        ComparisonRow(
            "no policy ever exceeds a server's configured slot count",
            1.0,
            float(capacity_respected),
        ),
        ComparisonRow(
            f"{config.scenario} perturbs occupancy beyond the "
            f"{RECOVERY_TOLERANCE:.0%} band ({REFERENCE_POLICY})",
            1.0,
            float(
                ref_recovery.peak_deviation
                > RECOVERY_TOLERANCE * abs(ref_recovery.baseline)
            ),
        ),
        ComparisonRow(
            "recovery metrics differ across at least two policies",
            1.0,
            float(len(distinct_recoveries) >= 2),
        ),
        ComparisonRow(
            "QoE shortens sessions under load (mean multiplier < 1)",
            1.0,
            float(_mean_multiplier(reference) < 1.0),
        ),
        ComparisonRow(
            "QoE coupling changes the occupancy trajectory vs qoe-off",
            1.0,
            float(coupling_bites),
        ),
    ]

    event_desc = (
        f"epochs [{scenario.first_epoch}, "
        f"{min(scenario.last_epoch, pool.n_epochs)})"
    )
    notes = [
        f"{FACILITY_SERVERS} servers, pool {pool.pool_size} players, "
        f"demand ratio {DEMAND_RATIO}, {SESSION_MEAN_S:.0f} s sessions, "
        f"{HORIZON_S / 60:.0f} min in {EPOCH_S:.0f} s epochs; scenario "
        f"{config.scenario!r} active {event_desc}; recovery = "
        f"{RECOVERY_TOLERANCE:.0%} band, {SETTLE_EPOCHS} epochs to "
        f"settle, first {WARMUP_EPOCHS} epochs warmup",
        f"qoe: rtt_good={qoe.rtt_good_ms:.0f}ms "
        f"scale={qoe.rtt_scale_ms:.0f}ms floor={qoe.duration_floor:.2f} "
        f"balk_escalation={qoe.balk_escalation:.2f}",
        "policy          admit   reject%   occ ttb   occ over/under   "
        "rtt ttb   qoe mult",
    ]
    for name in POLICIES:
        result = results[name]
        occ = occupancy_recovery[name]
        lat = rtt_recovery[name]

        def _ttb(stats: RecoveryStats) -> str:
            return (
                f"{stats.time_to_baseline:4d}ep"
                if stats.time_to_baseline is not None
                else " never"
            )

        notes.append(
            f"{name:<14} {result.admission.admitted:6d}   "
            f"{result.rejection_rate:7.1%}   {_ttb(occ)}   "
            f"{occ.overshoot:7.1f}/{occ.undershoot:7.1f}   "
            f"{_ttb(lat)}   {_mean_multiplier(result):8.3f}"
        )
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=notes,
        extras={
            "results": results,
            "occupancy_recovery": occupancy_recovery,
            "rtt_recovery": rtt_recovery,
            "scenario": scenario,
            "config": pool,
            "rtt": rtt,
            "uncoupled": uncoupled,
        },
    )
