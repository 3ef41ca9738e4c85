"""Experiment F2 — Fig 2: per-minute packet load, whole week.

Paper: "the server sees a packet rate of around 700-800 packets per
second" with predictable long-term behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.core.report import ComparisonRow
from repro.experiments import paperdata
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.workloads.scenarios import olygamer_scenario

EXPERIMENT_ID = "fig2"
TITLE = "Per-minute packet load for entire trace (Fig 2)"


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce the week-long per-minute packet-load series."""
    scenario = olygamer_scenario(seed)
    series = scenario.per_minute_series()
    pps = series.packet_rates()
    busy = pps[pps > 100.0]
    rows = [
        ComparisonRow("mean packet load", paperdata.MEAN_PPS, float(pps.mean()),
                      unit="pps"),
        ComparisonRow("hover band low (p10)", 700.0, float(np.percentile(busy, 10)),
                      unit="pps"),
        ComparisonRow("hover band high (p90)", 800.0, float(np.percentile(busy, 90)),
                      unit="pps", tolerance_factor=1.6),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[f"{pps.size} per-minute samples over the full week"],
        extras={"times_min": series.times / 60.0, "pps": pps},
    )
