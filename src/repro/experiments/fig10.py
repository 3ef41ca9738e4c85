"""Experiment F10 — Fig 10: total packet load at m = 30 min.

Paper: "increasing the interval size beyond the default map time of
30min removes the variability" — at map-rotation aggregation the series
is flat.
"""

from __future__ import annotations

import numpy as np

from repro.core.report import ComparisonRow
from repro.experiments import paperdata
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.workloads.scenarios import olygamer_scenario

EXPERIMENT_ID = "fig10"
TITLE = "Total packet load at m=30min (Fig 10)"


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce the 30-minute aggregated series and its flatness."""
    scenario = olygamer_scenario(seed)
    week = scenario.per_second_series()
    factor = int(paperdata.MAP_ROTATION_S)
    aggregated = week.rebin(factor)
    rates = aggregated.packet_rates()
    rates_1s = week.total_counts[: factor * rates.size]
    cv_30min = float(rates.std() / rates.mean())
    cv_1s = float(rates_1s.std() / rates_1s.mean())
    rows = [
        ComparisonRow("variability removed (CV at 30min)", 0.10, cv_30min,
                      tolerance_factor=2.5),
        ComparisonRow("30min series smoother than 1s (CV ratio)", 3.0,
                      cv_1s / max(cv_30min, 1e-9), tolerance_factor=3.0),
        ComparisonRow("mean packet load", paperdata.MEAN_PPS, float(rates.mean()),
                      unit="pps", tolerance_factor=1.3),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[f"{rates.size} 30-minute intervals over the week"],
        extras={"rates": rates},
    )
