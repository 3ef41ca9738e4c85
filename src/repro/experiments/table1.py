"""Experiment T1 — Table I: general trace information.

Runs the session-level week (full horizon — session events are cheap)
and compares connection/identity statistics against the paper.
"""

from __future__ import annotations

from repro.core.report import ComparisonRow
from repro.core.summary import GeneralTraceInfo
from repro.experiments import paperdata
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.workloads.scenarios import olygamer_scenario

EXPERIMENT_ID = "table1"
TITLE = "General trace information (Table I)"


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce Table I from a full-week session simulation."""
    scenario = olygamer_scenario(seed)
    info = GeneralTraceInfo.from_population(scenario.population)
    rows = [
        ComparisonRow("maps played", paperdata.MAPS_PLAYED, info.maps_played),
        ComparisonRow(
            "established connections",
            paperdata.ESTABLISHED_CONNECTIONS,
            info.established_connections,
        ),
        ComparisonRow(
            "unique clients establishing",
            paperdata.UNIQUE_CLIENTS_ESTABLISHING,
            info.unique_clients_establishing,
        ),
        ComparisonRow(
            "attempted connections",
            paperdata.ATTEMPTED_CONNECTIONS,
            info.attempted_connections,
        ),
        ComparisonRow(
            "unique clients attempting",
            paperdata.UNIQUE_CLIENTS_ATTEMPTING,
            info.unique_clients_attempting,
        ),
        ComparisonRow(
            "mean session", paperdata.MEAN_SESSION_MINUTES, info.mean_session_minutes,
            unit="min",
        ),
        ComparisonRow(
            "sessions per client",
            paperdata.MEAN_SESSIONS_PER_CLIENT,
            info.mean_sessions_per_client,
        ),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            "full-week session-level simulation (626,477 s horizon)",
        ],
        extras={"info": info},
    )
