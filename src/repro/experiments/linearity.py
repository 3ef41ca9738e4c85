"""Experiment X2 — §III-B/IV-B: per-player linearity of aggregate demand.

"the traffic from an aggregation of all on-line Counter-Strike players
is effectively linear to the number of active players" — and the slope
is the ~40 kbps modem clamp.  We sweep server slot counts through the
full session+count pipeline and fit the line.
"""

from __future__ import annotations

from repro.core.provisioning import PerPlayerModel, linearity_experiment
from repro.core.report import ComparisonRow
from repro.experiments import paperdata
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.gameserver.config import olygamer_week

EXPERIMENT_ID = "linearity"
TITLE = "Per-player linearity of server load (§III-B)"


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Sweep player counts and fit load-vs-players lines."""
    profile = olygamer_week()
    result = linearity_experiment(
        profile,
        player_counts=(4, 8, 12, 16, 20, 24, 28, 32),
        duration=1800.0,
        seed=seed,
    )
    analytic = PerPlayerModel.from_profile(profile)
    rows = [
        ComparisonRow("bandwidth linear in players (R^2)", 1.0,
                      result.kbps_fit.r_squared, tolerance_factor=1.05),
        ComparisonRow("packet load linear in players (R^2)", 1.0,
                      result.pps_fit.r_squared, tolerance_factor=1.05),
        ComparisonRow("bandwidth slope per player", paperdata.PER_PLAYER_KBPS,
                      result.kbps_per_player, unit="kbps", tolerance_factor=1.35),
        ComparisonRow("analytic per-player demand matches fit", 1.0,
                      float(abs(analytic.bandwidth_bps / 1000.0
                                - result.kbps_per_player)
                            < 0.3 * result.kbps_per_player)),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"fit: {result.kbps_per_player:.1f} kbps/player "
            f"(R^2={result.kbps_fit.r_squared:.4f}), "
            f"{result.pps_per_player:.1f} pps/player "
            f"(R^2={result.pps_fit.r_squared:.4f})",
            f"analytic model: {analytic.bandwidth_bps/1000:.1f} kbps, "
            f"{analytic.pps:.1f} pps per player",
        ],
        extras={"result": result, "analytic": analytic},
    )
