"""Experiment F15 — Fig 15(a,b): per-second outgoing load through the NAT.

Paper: "this disruption in service causes the game application itself to
freeze as well with outgoing traffic from the server to the NAT device
and outgoing traffic from the NAT device to the clients showing
drop-outs directly correlated with lost incoming packets."
"""

from __future__ import annotations

import numpy as np

from repro.core.natanalysis import NatAnalysis
from repro.core.report import ComparisonRow
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.experiments.table4 import NAT_WINDOW
from repro.workloads.scenarios import olygamer_nat_replay

EXPERIMENT_ID = "fig15"
TITLE = "Per-second outgoing packet load for NAT experiment (Fig 15)"


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce the outgoing series and the freeze correlation."""
    result = olygamer_nat_replay(seed, *NAT_WINDOW)
    analysis = NatAnalysis.from_result(result)
    series = analysis.series
    out_offered = series.server_to_nat.rates

    # correlation between freezes and outgoing dips: mean outgoing rate in
    # freeze seconds versus overall
    forwarding = result.forwarding
    start = series.server_to_nat.start_time
    freeze_seconds = set()
    for f_start, f_end in forwarding.freeze_windows:
        for second in range(int(f_start - start), int(np.ceil(f_end - start)) + 1):
            if 0 <= second < out_offered.size:
                freeze_seconds.add(second)
    freeze_index = sorted(freeze_seconds)
    if freeze_index:
        freeze_rate = float(out_offered[freeze_index].mean())
    else:
        freeze_rate = float(out_offered.mean())
    overall_rate = float(out_offered.mean())

    rows = [
        ComparisonRow("freezes occurred", 1.0, float(len(forwarding.freeze_windows) > 0)),
        ComparisonRow("outgoing load dips during freezes (rate ratio)", 0.55,
                      freeze_rate / max(overall_rate, 1e-9), tolerance_factor=1.8),
        ComparisonRow("outgoing drop-outs correlated with inbound loss", 1.0,
                      float(len(forwarding.freeze_windows) > 0
                            and analysis.incoming_loss_rate > 0)),
        ComparisonRow("outgoing loss stays tiny despite dips", 1.0,
                      float(analysis.outgoing_loss_rate < 0.002)),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"{len(forwarding.freeze_windows)} freezes; outgoing rate in freeze "
            f"seconds {freeze_rate:.0f} pps vs {overall_rate:.0f} pps overall",
        ],
        extras={"analysis": analysis, "out_offered": out_offered},
    )
