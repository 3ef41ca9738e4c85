"""Experiment F7 — Fig 7(a,b): in/out packet load at m = 10 ms.

Paper: "it is clear that the periodicity comes from the game server
deterministically flooding its clients with state updates about every
50ms ... the incoming packet load is not highly synchronized."
"""

from __future__ import annotations

import numpy as np

from repro.core.report import ComparisonRow
from repro.core.timeseries import interval_counts
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.stats.autocorr import burstiness_index
from repro.trace.packet import Direction
from repro.workloads.scenarios import DEFAULT_PACKET_WINDOW, olygamer_scenario

EXPERIMENT_ID = "fig7"
TITLE = "In/out packet load at m=10ms (Fig 7)"
BIN_SIZE = 0.010
N_INTERVALS = 200
#: skip the map-change downtime at the window boundary
START_OFFSET_S = 60.0


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce the directional 10 ms plots and their dispersion contrast."""
    scenario = olygamer_scenario(seed)
    window_start, end = DEFAULT_PACKET_WINDOW
    trace = scenario.packet_window(window_start, end)
    start = window_start + START_OFFSET_S
    in_rates = interval_counts(
        trace, BIN_SIZE, N_INTERVALS, direction=Direction.IN, start_time=start
    )
    out_rates = interval_counts(
        trace, BIN_SIZE, N_INTERVALS, direction=Direction.OUT, start_time=start
    )
    # dispersion measured over a longer stretch for stability
    window = trace.time_slice(start, start + 60.0)
    in_counts = np.histogram(
        window.inbound().timestamps, bins=int(60.0 / BIN_SIZE),
        range=(start, start + 60.0),
    )[0].astype(float)
    out_counts = np.histogram(
        window.outbound().timestamps, bins=int(60.0 / BIN_SIZE),
        range=(start, start + 60.0),
    )[0].astype(float)
    in_burst = burstiness_index(in_counts)
    out_burst = burstiness_index(out_counts)
    rows = [
        ComparisonRow("outbound much burstier than inbound (index ratio)",
                      10.0, out_burst / max(in_burst, 1e-9), tolerance_factor=4.0),
        ComparisonRow("outbound peak 10ms load", 2000.0, float(out_rates.max()),
                      unit="pps", tolerance_factor=1.7),
        ComparisonRow("inbound peak well below outbound peak", 1.0,
                      float(in_rates.max() < 0.6 * out_rates.max())),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"burstiness index out {out_burst:.1f} vs in {in_burst:.2f}: the "
            "server floods on ticks, clients arrive desynchronised",
        ],
        extras={"in_rates": in_rates, "out_rates": out_rates},
    )
