"""Experiment F13 — Fig 13: packet-size CDFs.

Paper: "almost all of the incoming packets are smaller than 60 bytes
while a large fraction of outgoing packets have sizes spread between 0
and 300 bytes.  This is significantly different than aggregate traffic
seen within Internet exchange points in which the mean packet size
observed was above 400 bytes."
"""

from __future__ import annotations

from repro.core.packetsize import PacketSizeAnalysis
from repro.core.report import ComparisonRow
from repro.experiments import paperdata
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.workloads.scenarios import DEFAULT_PACKET_WINDOW, olygamer_scenario

EXPERIMENT_ID = "fig13"
TITLE = "Packet size cumulative distribution functions (Fig 13)"


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce the payload-size CDFs and their headline quantiles."""
    scenario = olygamer_scenario(seed)
    trace = scenario.packet_window(*DEFAULT_PACKET_WINDOW)
    analysis = PacketSizeAnalysis.from_trace(trace)
    rows = [
        ComparisonRow("inbound packets under 60B", 0.99,
                      analysis.fraction_under(paperdata.INBOUND_SIZE_BOUND, "in"),
                      tolerance_factor=1.1),
        ComparisonRow("outbound packets under 300B", 0.95,
                      analysis.fraction_under(300.0, "out"), tolerance_factor=1.15),
        ComparisonRow("outbound spread across 0-300B (p90 - p10)", 150.0,
                      float(analysis.outbound_cdf.quantile(0.9)
                            - analysis.outbound_cdf.quantile(0.1)),
                      unit="B", tolerance_factor=1.6),
        ComparisonRow("game mean far below exchange-point mean", 1.0,
                      float(analysis.mean_total
                            < 0.5 * paperdata.EXCHANGE_POINT_MEAN_BYTES)),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"median payload: total {analysis.total_cdf.median:.0f}B, "
            f"in {analysis.inbound_cdf.median:.0f}B, "
            f"out {analysis.outbound_cdf.median:.0f}B",
        ],
        extras={"analysis": analysis},
    )
