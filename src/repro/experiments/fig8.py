"""Experiment F8 — Fig 8: total packet load at m = 50 ms.

Paper: "aggregating over this interval smooths out the packet load
considerably" — one tick per bin, so the burst structure vanishes.
"""

from __future__ import annotations

from repro.core.report import ComparisonRow
from repro.core.timeseries import interval_counts
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.workloads.scenarios import DEFAULT_PACKET_WINDOW, olygamer_scenario

EXPERIMENT_ID = "fig8"
TITLE = "Total packet load at m=50ms (Fig 8)"
BIN_SIZE = 0.050
N_INTERVALS = 200
#: skip the map-change downtime at the window boundary
START_OFFSET_S = 60.0


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce the smoothed 50 ms plot and quantify the smoothing."""
    scenario = olygamer_scenario(seed)
    window_start, end = DEFAULT_PACKET_WINDOW
    trace = scenario.packet_window(window_start, end)
    start = window_start + START_OFFSET_S
    rates_50 = interval_counts(trace, BIN_SIZE, N_INTERVALS, start_time=start)
    rates_10 = interval_counts(trace, 0.010, N_INTERVALS * 5, start_time=start)
    cv_50 = float(rates_50.std() / rates_50.mean())
    cv_10 = float(rates_10.std() / rates_10.mean())
    rows = [
        ComparisonRow("50ms series much smoother than 10ms (CV ratio)", 4.0,
                      cv_10 / max(cv_50, 1e-9), tolerance_factor=3.0),
        ComparisonRow("50ms peak below 1500 pps", 1.0,
                      float(rates_50.max() < 1500.0)),
        ComparisonRow("mean packet load", 800.0, float(rates_50.mean()),
                      unit="pps", tolerance_factor=1.4),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[f"coefficient of variation: {cv_10:.2f} at 10 ms vs {cv_50:.2f} at 50 ms"],
        extras={"rates": rates_50},
    )
