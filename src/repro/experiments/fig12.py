"""Experiment F12 — Fig 12(a,b): packet-size PDFs.

Paper: almost all packets under 200 bytes; inbound an extremely narrow
distribution around 40 bytes; outbound a much wider distribution around
a significantly larger mean.
"""

from __future__ import annotations

from repro.core.packetsize import PacketSizeAnalysis
from repro.core.report import ComparisonRow
from repro.experiments import paperdata
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.workloads.scenarios import DEFAULT_PACKET_WINDOW, olygamer_scenario

EXPERIMENT_ID = "fig12"
TITLE = "Packet size probability density functions (Fig 12)"


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce the per-direction payload-size PDFs."""
    scenario = olygamer_scenario(seed)
    trace = scenario.packet_window(*DEFAULT_PACKET_WINDOW)
    analysis = PacketSizeAnalysis.from_trace(trace)
    rows = [
        ComparisonRow("mean payload in", paperdata.MEAN_PAYLOAD_BYTES_IN,
                      analysis.mean_in, unit="B", tolerance_factor=1.2),
        ComparisonRow("mean payload out", paperdata.MEAN_PAYLOAD_BYTES_OUT,
                      analysis.mean_out, unit="B", tolerance_factor=1.2),
        ComparisonRow("fraction of packets under 200B", 0.95,
                      analysis.fraction_under(paperdata.SMALL_PACKET_BOUND),
                      tolerance_factor=1.15),
        ComparisonRow("outbound spread much wider than inbound (IQR ratio)",
                      8.0, analysis.outbound_spread() / analysis.inbound_spread(),
                      tolerance_factor=3.0),
        ComparisonRow("negligible mass beyond 500B truncation", 0.0,
                      analysis.truncation_excess(), tolerance_factor=1.0),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"inbound IQR {analysis.inbound_spread():.1f}B, "
            f"outbound IQR {analysis.outbound_spread():.1f}B",
        ],
        extras={"analysis": analysis},
    )
