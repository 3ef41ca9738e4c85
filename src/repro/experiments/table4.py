"""Experiment T4 — Table IV: the NAT device experiment.

One 30-minute map of server traffic is pushed through the pps-bound NAT
model.  Reproduction targets: the strong loss asymmetry (incoming 1.3 %
vs outgoing 0.046 %), loss within the game's tolerable 1–2 % band, and
the counts' proportions.
"""

from __future__ import annotations

from repro.core.natanalysis import NatAnalysis
from repro.core.report import ComparisonRow
from repro.experiments import paperdata
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.router.nat import NatDevice
from repro.workloads.scenarios import olygamer_scenario

EXPERIMENT_ID = "table4"
TITLE = "NAT experiment (Table IV)"
#: the traced map: 30 minutes inside the default packet window
NAT_WINDOW = (3600.0, 5400.0)


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce Table IV by running a 30-minute map through the device."""
    scenario = olygamer_scenario(seed)
    trace = scenario.packet_window(*NAT_WINDOW)
    device = NatDevice(seed=seed + 100)
    result = device.run(trace)
    analysis = NatAnalysis.from_result(result)

    window = NAT_WINDOW[1] - NAT_WINDOW[0]
    rows = [
        ComparisonRow("incoming loss rate", paperdata.NAT_INCOMING_LOSS,
                      analysis.incoming_loss_rate, tolerance_factor=1.8),
        ComparisonRow("outgoing loss rate", paperdata.NAT_OUTGOING_LOSS,
                      analysis.outgoing_loss_rate, tolerance_factor=3.0),
        ComparisonRow("loss asymmetry (in/out)",
                      paperdata.NAT_INCOMING_LOSS / paperdata.NAT_OUTGOING_LOSS,
                      analysis.loss_asymmetry(), tolerance_factor=4.0),
        ComparisonRow("clients->NAT packets", paperdata.NAT_CLIENTS_TO_NAT,
                      float(analysis.clients_to_nat), tolerance_factor=1.4),
        ComparisonRow("server->NAT packets", paperdata.NAT_SERVER_TO_NAT,
                      float(analysis.server_to_nat), tolerance_factor=1.4),
        ComparisonRow("incoming loss within tolerable 1-2% band", 1.0,
                      float(analysis.within_tolerable_band())),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"30-minute map (t=[{NAT_WINDOW[0]:.0f},{NAT_WINDOW[1]:.0f})s) through a "
            f"{device.device_profile.lookup_rate:.0f} pps device",
            f"{analysis.freeze_count} game freezes, "
            f"{analysis.stall_count} device stalls, "
            f"mean forwarding delay {analysis.mean_forwarding_delay*1000:.2f} ms",
        ],
        extras={"analysis": analysis, "result": result},
    )
