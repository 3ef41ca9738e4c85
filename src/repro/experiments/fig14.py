"""Experiment F14 — Fig 14(a,b): per-second incoming load through the NAT.

Paper: "the incoming packet load from the clients to the NAT device is
relatively stable while the packet load from the NAT device to the
server sees frequent drop-outs."
"""

from __future__ import annotations

import numpy as np

from repro.core.natanalysis import NatAnalysis
from repro.core.report import ComparisonRow
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.experiments.table4 import NAT_WINDOW
from repro.router.nat import NatDevice
from repro.workloads.scenarios import olygamer_scenario

EXPERIMENT_ID = "fig14"
TITLE = "Per-second incoming packet load for NAT experiment (Fig 14)"


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce the two incoming-path series and their contrast."""
    scenario = olygamer_scenario(seed)
    trace = scenario.packet_window(*NAT_WINDOW)
    result = NatDevice(seed=seed + 100).run(trace)
    analysis = NatAnalysis.from_result(result)
    series = analysis.series
    offered = series.clients_to_nat.rates
    forwarded = series.nat_to_server.rates
    dropouts_in, _dropouts_out = series.dropout_seconds(threshold_fraction=0.75)
    offered_cv = float(offered.std() / offered.mean())
    minutes = (NAT_WINDOW[1] - NAT_WINDOW[0]) / 60.0
    rows = [
        ComparisonRow("clients->NAT load relatively stable (CV)", 0.08,
                      offered_cv, tolerance_factor=3.0),
        ComparisonRow("NAT->server shows drop-out seconds", 1.0,
                      float(dropouts_in > 0)),
        ComparisonRow("drop-outs are frequent (several per map)", 1.0,
                      float(dropouts_in >= minutes / 3.0)),
        ComparisonRow("min forwarded rate dips well below offered", 1.0,
                      float(forwarded.min() < 0.6 * offered.mean())),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[f"{dropouts_in} drop-out seconds across the 30-minute map"],
        extras={"offered": offered, "forwarded": forwarded, "analysis": analysis},
    )
