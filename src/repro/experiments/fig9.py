"""Experiment F9 — Fig 9: total packet load at m = 1 s, first 18,000 s.

Paper: "Noticeable dips appear every 1800 (30min) intervals" — the
server pauses game traffic while it loads the next map.
"""

from __future__ import annotations

import numpy as np

from repro.core.report import ComparisonRow
from repro.experiments import paperdata
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.workloads.scenarios import olygamer_scenario

EXPERIMENT_ID = "fig9"
TITLE = "Total packet load at m=1s with map-change dips (Fig 9)"
HORIZON_S = 18_000


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce the 1 s series and locate the 30-minute dips."""
    scenario = olygamer_scenario(seed)
    week = scenario.per_second_series()
    rates = week.total_counts[:HORIZON_S]

    map_period = int(paperdata.MAP_ROTATION_S)
    expected_dips = [t for t in range(map_period, HORIZON_S, map_period)]
    dip_depths = []
    for dip_time in expected_dips:
        window = rates[dip_time : dip_time + 10]
        baseline = rates[dip_time - 120 : dip_time - 20].mean()
        if window.size and baseline > 0:
            dip_depths.append(1.0 - float(window.min()) / baseline)
    mean_dip_depth = float(np.mean(dip_depths)) if dip_depths else 0.0

    rows = [
        ComparisonRow("dips found at every 1800s boundary", 1.0,
                      float(all(depth > 0.5 for depth in dip_depths))),
        ComparisonRow("number of map dips in 18000s", float(len(expected_dips)),
                      float(len(dip_depths))),
        ComparisonRow("mean dip depth (fraction of load)", 0.9, mean_dip_depth,
                      tolerance_factor=1.5),
        ComparisonRow("mean packet load", 800.0, float(rates.mean()),
                      unit="pps", tolerance_factor=1.4),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            "dips are server-local map loading: clients already hold the "
            "maps, so downtime is not download traffic",
        ],
        extras={"rates": rates, "dip_depths": dip_depths},
    )
