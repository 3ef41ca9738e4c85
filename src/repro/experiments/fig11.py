"""Experiment F11 — Fig 11: client bandwidth histogram.

Paper: "the overwhelming majority of flows are pegged at modem rates or
below ... only a handful of 'l337' players connecting via high speed
links" exceed the 56 kbps barrier; dividing server bandwidth by 22 slots
gives ~40 kbps per player.
"""

from __future__ import annotations

from repro.core.report import ComparisonRow
from repro.core.sessions import ClientBandwidthAnalysis
from repro.experiments import paperdata
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.workloads.scenarios import olygamer_scenario

EXPERIMENT_ID = "fig11"
TITLE = "Client bandwidth histogram (Fig 11)"
#: two-hour window so enough distinct flows qualify for the histogram
WINDOW = (3600.0, 10800.0)


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce the per-flow bandwidth histogram and the modem clamp."""
    scenario = olygamer_scenario(seed)
    trace = scenario.packet_window(*WINDOW)
    analysis = ClientBandwidthAnalysis.from_trace(trace)
    modal_kbps = analysis.modal_bandwidth_bps() / 1000.0
    rows = [
        ComparisonRow("modal flow bandwidth", paperdata.PER_PLAYER_KBPS,
                      modal_kbps, unit="kbps", tolerance_factor=1.4),
        ComparisonRow("fraction pegged at/below modem rates", 0.95,
                      analysis.fraction_at_or_below_modem(), tolerance_factor=1.15),
        ComparisonRow("some flows exceed the 56kbps barrier", 1.0,
                      float(analysis.fraction_above_modem() > 0.0)),
        ComparisonRow("high-speed tail is a small minority", 1.0,
                      float(analysis.fraction_above_modem() < 0.15)),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"{analysis.flow_count} flows >= 30 s in a "
            f"{(WINDOW[1]-WINDOW[0])/3600:.0f} h window; "
            f"mean {analysis.mean_bandwidth_bps()/1000:.1f} kbps",
        ],
        extras={"analysis": analysis},
    )
