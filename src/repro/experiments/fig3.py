"""Experiment F3 — Fig 3: per-minute number of players, whole week.

Paper: player count shows short-term variation with predictable
long-term behaviour; per-minute counts sometimes exceed the 22 slots
(players coming and going within a minute); the three outages cause
population dips lasting minutes though the outages lasted seconds.
"""

from __future__ import annotations

import numpy as np

from repro.core.report import ComparisonRow
from repro.experiments import paperdata
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.workloads.scenarios import olygamer_scenario

EXPERIMENT_ID = "fig3"
TITLE = "Per-minute number of players for entire trace (Fig 3)"


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce the per-minute player-count series and outage dips."""
    scenario = olygamer_scenario(seed)
    population = scenario.population
    per_minute = population.distinct_players_per_interval(60.0)
    instantaneous = population.players_at(
        np.arange(0.0, population.profile.duration, 60.0) + 30.0
    )

    # population dip around each outage: minimum instantaneous count in
    # the 10 minutes after, versus the 10 minutes before
    dips = []
    for outage in population.outages:
        minute = int(outage.start // 60.0)
        before = instantaneous[max(0, minute - 10) : minute]
        after = instantaneous[minute : minute + 10]
        if before.size and after.size:
            dips.append(float(before.mean() - after.min()))
    mean_dip = float(np.mean(dips)) if dips else 0.0

    rows = [
        ComparisonRow("mean players (instantaneous)", 20.0,
                      float(instantaneous.mean()), tolerance_factor=1.3),
        ComparisonRow("max per-minute distinct players exceeds slots",
                      1.0, float(per_minute.max() > paperdata.SERVER_SLOTS)),
        ComparisonRow("outages observed", 3.0, float(len(population.outages))),
        ComparisonRow("mean outage population dip", 8.0, mean_dip,
                      unit="players", tolerance_factor=2.5),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            "dips recover over minutes because only address-savvy players "
            "reconnect quickly (auto-discovery users return slowly)",
        ],
        extras={
            "per_minute_distinct": per_minute,
            "instantaneous": instantaneous,
        },
    )
