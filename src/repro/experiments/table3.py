"""Experiment T3 — Table III: application (payload) information."""

from __future__ import annotations

from repro.core.report import ComparisonRow
from repro.core.summary import NetworkUsage
from repro.experiments import paperdata
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.workloads.scenarios import DEFAULT_PACKET_WINDOW, olygamer_scenario

EXPERIMENT_ID = "table3"
TITLE = "Application information (Table III)"


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce Table III's mean payload sizes and byte split."""
    scenario = olygamer_scenario(seed)
    start, end = DEFAULT_PACKET_WINDOW
    trace = scenario.packet_window(start, end)
    usage = NetworkUsage.from_trace(trace, duration=end - start)
    horizon = paperdata.TRACE_DURATION_S
    scale = horizon / usage.duration
    rows = [
        ComparisonRow("mean packet size", paperdata.MEAN_PAYLOAD_BYTES,
                      usage.mean_packet_size, unit="B"),
        ComparisonRow("mean packet size in", paperdata.MEAN_PAYLOAD_BYTES_IN,
                      usage.mean_packet_size_in, unit="B"),
        ComparisonRow("mean packet size out", paperdata.MEAN_PAYLOAD_BYTES_OUT,
                      usage.mean_packet_size_out, unit="B"),
        ComparisonRow("total app bytes (extrapolated)", paperdata.TOTAL_APP_GB,
                      usage.app_bytes * scale / 1e9, unit="GB"),
        ComparisonRow("app bytes in (extrapolated)", paperdata.TOTAL_APP_GB_IN,
                      usage.app_bytes_in * scale / 1e9, unit="GB"),
        ComparisonRow("app bytes out (extrapolated)", paperdata.TOTAL_APP_GB_OUT,
                      usage.app_bytes_out * scale / 1e9, unit="GB"),
    ]
    out_over_in = usage.mean_packet_size_out / usage.mean_packet_size_in
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"outgoing/incoming payload ratio: {out_over_in:.2f}x "
            "(paper: 'more than three times')",
        ],
        extras={"usage": usage},
    )
