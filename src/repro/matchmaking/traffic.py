"""Per-server traffic synthesis over matchmaker-assigned populations.

The closed loop's epoch engine is cheap; what costs is turning each
server's assigned session list into traffic.  This module makes that
stage look exactly like the exogenous fleet path so it rides the same
machinery: picklable per-server task dataclasses
(:class:`AssignedSeriesTask` / :class:`AssignedWindowTask`) evaluated by
module-level workers, shardable through
:func:`repro.fleet.execution.shard_map_fold` and content-addressed by
:class:`repro.fleet.cache.ShardCache` — a task fingerprints over the
profile, the assigned :class:`~repro.gameserver.population.SessionTable`
(one hash per column) and the seed, so any change to
placement (a different policy, pool size or seed) selects fresh cache
entries while a warm re-run replays bit-identically.

Workers reconstruct the same
:class:`~repro.workloads.scenarios.Scenario` a serial
:class:`~repro.fleet.scenario.FleetScenario` builds in-process, so the
serial and sharded paths are bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gameserver.config import ServerProfile
from repro.gameserver.fluid import FluidSeries
from repro.gameserver.population import (
    AttemptRecord,
    PopulationResult,
    SessionTable,
)
from repro.trace.trace import Trace


def assigned_population(
    profile: ServerProfile, sessions: SessionTable
) -> PopulationResult:
    """A :class:`PopulationResult` for matchmaker-assigned sessions.

    Stands in for :func:`repro.gameserver.population.simulate_population`
    when the session list comes from the facility matchmaker instead of
    the server's own arrival process.  Map-change and outage gaps still
    follow the server profile (rotation is a server-side affair), and
    the attempt log records the admissions — refusals happen at the
    matchmaker, not the slot table, in this mode.
    """
    ordered = sessions.take(np.lexsort((sessions.session_id, sessions.start)))
    n_clients = int(np.unique(ordered.client_id).size)
    map_changes = np.arange(
        profile.map_duration, profile.duration, profile.map_duration
    )
    return PopulationResult(
        profile=profile,
        sessions=ordered,
        attempts=[
            AttemptRecord(start, client_id, accepted=True)
            for start, client_id in zip(
                ordered.start.tolist(), ordered.client_id.tolist()
            )
        ],
        map_change_times=[float(t) for t in map_changes],
        outages=tuple(o for o in profile.outages if o.start < profile.duration),
        unique_attempting=n_clients,
        unique_establishing=n_clients,
    )


# ----------------------------------------------------------------------
# picklable per-server workloads (the sharded, cacheable stage)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AssignedSeriesTask:
    """Per-second fluid series of one server under assigned sessions."""

    profile: ServerProfile
    sessions: SessionTable
    seed: int


@dataclass(frozen=True)
class AssignedWindowTask:
    """Packet-level window of one server under assigned sessions."""

    profile: ServerProfile
    sessions: SessionTable
    seed: int
    start: float
    end: float


def _assigned_scenario(profile: ServerProfile, sessions, seed: int):
    from repro.workloads.scenarios import Scenario

    return Scenario(
        profile, seed=seed, population=assigned_population(profile, sessions)
    )


def simulate_assigned_series(task: AssignedSeriesTask) -> FluidSeries:
    """Worker: count-level per-second series over the assigned sessions."""
    return _assigned_scenario(
        task.profile, task.sessions, task.seed
    ).per_second_series()


def simulate_assigned_window(task: AssignedWindowTask) -> Trace:
    """Worker: packet-level window trace over the assigned sessions."""
    return _assigned_scenario(
        task.profile, task.sessions, task.seed
    ).packet_window(task.start, task.end)
