"""Experiment F1 — Fig 1: per-minute bandwidth of the server, whole week.

The paper's claim: "aggregate bandwidth consumed by the server hovers
around 800-900 kilobits per second" with short-term variation but
predictable long-term behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.core.report import ComparisonRow
from repro.experiments import paperdata
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.net.headers import OverheadModel, WIRE_OVERHEAD_UDP_V4
from repro.workloads.scenarios import olygamer_scenario

EXPERIMENT_ID = "fig1"
TITLE = "Per-minute bandwidth for entire trace (Fig 1)"


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce the week-long per-minute bandwidth series."""
    scenario = olygamer_scenario(seed)
    series = scenario.per_minute_series()
    overhead = OverheadModel(WIRE_OVERHEAD_UDP_V4).per_packet
    kbps = series.bandwidth_bps(overhead) / 1000.0
    busy = kbps[kbps > 100.0]  # exclude outage minutes from the hover band
    rows = [
        ComparisonRow("mean bandwidth", paperdata.MEAN_BANDWIDTH_KBPS,
                      float(kbps.mean()), unit="kbps"),
        ComparisonRow("hover band low (p10)", 800.0, float(np.percentile(busy, 10)),
                      unit="kbps"),
        ComparisonRow("hover band high (p90)", 900.0, float(np.percentile(busy, 90)),
                      unit="kbps", tolerance_factor=1.6),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"{kbps.size} per-minute samples over the full week "
            "(count-level generation)",
        ],
        extras={"times_min": series.times / 60.0, "kbps": kbps},
    )
