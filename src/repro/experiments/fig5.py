"""Experiment F5 — Fig 5: variance-time plot of total packet load.

Reproduces the paper's three-regime aggregated-variance analysis at the
10 ms base interval:

* m < 50 ms — slope steeper than -1 (H < 1/2): tick periodicity makes
  aggregation smooth the series faster than independence would;
* 50 ms < m < 30 min — sustained variability from map-change dips and
  population wander;
* m > 30 min — short-range dependent, H ≈ 1/2.

A six-hour 10 ms count window (same structural model as the packet
level) covers the first two regimes; the week-long per-second series is
stitched on for the third.
"""

from __future__ import annotations

from repro.core.report import ComparisonRow
from repro.core.selfsimilarity import (
    SelfSimilarityReport,
    stitch_variance_time,
    variance_time_from_counts,
)
from repro.experiments import paperdata
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.stats.hurst import default_block_sizes
from repro.workloads.scenarios import olygamer_scenario

EXPERIMENT_ID = "fig5"
TITLE = "Variance-time plot for total server packet load (Fig 5)"

HIGHRES_WINDOW_S = 6 * 3600.0
BASE_INTERVAL_S = paperdata.VT_BASE_INTERVAL_S


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Reproduce the Fig 5 variance-time plot and its regime fits."""
    scenario = olygamer_scenario(seed)

    highres = scenario.fluid_generator.high_resolution_window(
        0.0, HIGHRES_WINDOW_S, bin_size=BASE_INTERVAL_S
    )
    high_plot = variance_time_from_counts(
        highres.total_counts, BASE_INTERVAL_S
    )
    week = scenario.per_second_series()
    week_counts = week.total_counts
    long_plot = variance_time_from_counts(
        week_counts, 1.0, block_sizes=default_block_sizes(week_counts.size, per_decade=6)
    )
    stitched = stitch_variance_time(high_plot, long_plot)
    report = SelfSimilarityReport.from_plot(stitched)

    rows = [
        ComparisonRow("sub-tick H below 1/2", 1.0,
                      float(report.sub_tick_hurst < paperdata.HURST_SRD)),
        ComparisonRow("mid-regime H elevated above long-term", 1.0,
                      float(report.mid_hurst > report.long_term_hurst)),
        ComparisonRow("long-term H", paperdata.HURST_SRD, report.long_term_hurst,
                      tolerance_factor=1.45),
        ComparisonRow("three-regime shape holds", 1.0,
                      float(report.matches_paper_shape())),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"high-res regime: {HIGHRES_WINDOW_S/3600:.0f} h at 10 ms bins; "
            "long regime: full week at 1 s, stitched for continuity",
            "regime fits: "
            + ", ".join(
                f"{fit.name}: slope {fit.slope:.2f} (H={fit.hurst:.2f})"
                for fit in report.regimes
            ),
        ],
        extras={"report": report, "plot": stitched},
    )
