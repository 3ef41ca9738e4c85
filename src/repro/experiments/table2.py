"""Experiment T2 — Table II: network usage information.

Packet-level rates are window-invariant, so the comparison runs on the
default one-hour packet window; totals are extrapolated to the paper's
626,477 s horizon for the headline 500 M packets / 64 GB row.
"""

from __future__ import annotations

from repro.core.report import ComparisonRow
from repro.core.summary import NetworkUsage
from repro.experiments import paperdata
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.workloads.scenarios import DEFAULT_PACKET_WINDOW, olygamer_scenario

EXPERIMENT_ID = "table2"
TITLE = "Network usage information (Table II)"


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce Table II's rates and extrapolated totals."""
    scenario = olygamer_scenario(seed)
    start, end = DEFAULT_PACKET_WINDOW
    trace = scenario.packet_window(start, end)
    usage = NetworkUsage.from_trace(trace, duration=end - start)
    horizon = paperdata.TRACE_DURATION_S
    rows = [
        ComparisonRow("mean packet load", paperdata.MEAN_PPS, usage.mean_packet_load,
                      unit="pps"),
        ComparisonRow("mean packet load in", paperdata.MEAN_PPS_IN,
                      usage.mean_packet_load_in, unit="pps"),
        ComparisonRow("mean packet load out", paperdata.MEAN_PPS_OUT,
                      usage.mean_packet_load_out, unit="pps"),
        ComparisonRow("mean bandwidth", paperdata.MEAN_BANDWIDTH_KBPS,
                      usage.mean_bandwidth_kbps, unit="kbps"),
        ComparisonRow("mean bandwidth in", paperdata.MEAN_BANDWIDTH_IN_KBPS,
                      usage.mean_bandwidth_in_kbps, unit="kbps"),
        ComparisonRow("mean bandwidth out", paperdata.MEAN_BANDWIDTH_OUT_KBPS,
                      usage.mean_bandwidth_out_kbps, unit="kbps"),
        ComparisonRow("total packets (extrapolated)", paperdata.TOTAL_PACKETS,
                      usage.extrapolate_packets(horizon)),
        ComparisonRow("total bytes (extrapolated)", paperdata.TOTAL_WIRE_GB,
                      usage.extrapolate_wire_gigabytes(horizon), unit="GB"),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"rates measured on a packet-level window t=[{start:.0f}, {end:.0f})s; "
            "totals extrapolated to the paper's 626,477 s",
            "structural asymmetry reproduced: more packets in, more bytes out",
        ],
        extras={"usage": usage},
    )
