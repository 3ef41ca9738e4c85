"""Experiment F4 — Fig 4(a-d): per-minute in/out bandwidth and packet load.

The paper's structural asymmetry: "the incoming packet load exceeds the
outgoing packet load while the outgoing bandwidth exceeds the incoming
bandwidth" — the server receives many tiny updates and broadcasts fewer
but larger snapshots.
"""

from __future__ import annotations

from repro.core.report import ComparisonRow
from repro.experiments import paperdata
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.net.headers import OverheadModel, WIRE_OVERHEAD_UDP_V4
from repro.workloads.scenarios import olygamer_scenario

EXPERIMENT_ID = "fig4"
TITLE = "Per-minute in/out bandwidth and packet load (Fig 4)"


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce the four per-minute directional series."""
    scenario = olygamer_scenario(seed)
    series = scenario.per_minute_series()
    overhead = OverheadModel(WIRE_OVERHEAD_UDP_V4).per_packet
    in_kbps = series.bandwidth_bps(overhead, "in") / 1000.0
    out_kbps = series.bandwidth_bps(overhead, "out") / 1000.0
    in_pps = series.packet_rates("in")
    out_pps = series.packet_rates("out")
    rows = [
        ComparisonRow("mean incoming bandwidth", paperdata.MEAN_BANDWIDTH_IN_KBPS,
                      float(in_kbps.mean()), unit="kbps"),
        ComparisonRow("mean outgoing bandwidth", paperdata.MEAN_BANDWIDTH_OUT_KBPS,
                      float(out_kbps.mean()), unit="kbps"),
        ComparisonRow("mean incoming packet load", paperdata.MEAN_PPS_IN,
                      float(in_pps.mean()), unit="pps"),
        ComparisonRow("mean outgoing packet load", paperdata.MEAN_PPS_OUT,
                      float(out_pps.mean()), unit="pps"),
        ComparisonRow("in pps exceeds out pps", 1.0,
                      float(in_pps.mean() > out_pps.mean())),
        ComparisonRow("out bandwidth exceeds in bandwidth", 1.0,
                      float(out_kbps.mean() > in_kbps.mean())),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        extras={
            "times_min": series.times / 60.0,
            "in_kbps": in_kbps,
            "out_kbps": out_kbps,
            "in_pps": in_pps,
            "out_pps": out_pps,
        },
    )
