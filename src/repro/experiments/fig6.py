"""Experiment F6 — Fig 6: total packet load at m = 10 ms (first 200 bins).

Paper: "The figure exhibits an extremely bursty, highly periodic
pattern" — spikes to >2000 pps every ~5 bins (the 50 ms tick) over a
~800 pps mean.
"""

from __future__ import annotations

import numpy as np

from repro.core.periodicity import PeriodicityAnalysis
from repro.core.report import ComparisonRow
from repro.core.timeseries import interval_counts
from repro.experiments import paperdata
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.workloads.scenarios import DEFAULT_PACKET_WINDOW, olygamer_scenario

EXPERIMENT_ID = "fig6"
TITLE = "Total packet load at m=10ms (Fig 6)"
BIN_SIZE = 0.010
N_INTERVALS = 200
#: skip the map-change downtime at the window boundary
START_OFFSET_S = 60.0


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce the 10 ms burst plot and its periodicity metrics."""
    scenario = olygamer_scenario(seed)
    window_start, end = DEFAULT_PACKET_WINDOW
    trace = scenario.packet_window(window_start, end)
    start = window_start + START_OFFSET_S
    rates = interval_counts(trace, BIN_SIZE, N_INTERVALS, start_time=start)
    analysis = PeriodicityAnalysis.from_trace(
        trace.time_slice(start, start + 60.0), bin_size=BIN_SIZE
    )
    rows = [
        ComparisonRow("recovered tick period", paperdata.SERVER_TICK_S,
                      analysis.recovered_period_out, unit="s", tolerance_factor=1.25),
        ComparisonRow("peak 10ms packet load", 2000.0, float(rates.max()),
                      unit="pps", tolerance_factor=1.6),
        ComparisonRow("burst peak-to-mean ratio >= 2", 1.0,
                      float(rates.max() / max(rates.mean(), 1e-9) >= 2.0)),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"outbound burstiness index {analysis.burstiness_out:.1f} "
            f"(inbound {analysis.burstiness_in:.1f}) at 10 ms bins",
        ],
        extras={"rates": rates, "analysis": analysis},
    )
