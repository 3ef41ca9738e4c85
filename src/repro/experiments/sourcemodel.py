"""Experiment X6 — §IV-B source-model pipeline (Borella-style).

Fits an analytic per-direction source model from a 10-minute game
window, regenerates traffic from the model alone, and closes the loop:
the regenerated stream must match the original's rates, payload means
and — the part renewal models miss — the tick-burst periodicity.
"""

from __future__ import annotations

from repro.core.report import ComparisonRow
from repro.core.sourcemodels import fit_source_model, validate_model
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.workloads.scenarios import olygamer_scenario

EXPERIMENT_ID = "sourcemodel"
TITLE = "Fitted source models regenerate the traffic (§IV-B)"
WINDOW = (3660.0, 4260.0)


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Fit, regenerate, and validate the source model."""
    scenario = olygamer_scenario(seed)
    trace = scenario.packet_window(*WINDOW)
    model = fit_source_model(trace)
    validation = validate_model(trace, model, duration=120.0, seed=seed + 1)

    rows = [
        ComparisonRow("outbound identified as tick-periodic", 1.0,
                      float(model.outbound.is_periodic)),
        ComparisonRow("fitted tick period", 0.050,
                      model.outbound.tick_period or 0.0, unit="s",
                      tolerance_factor=1.2),
        ComparisonRow("inbound payload model mean", 39.7,
                      model.inbound.payload.mean, unit="B",
                      tolerance_factor=1.2),
        ComparisonRow("outbound payload model mean", 129.5,
                      model.outbound.payload.mean, unit="B",
                      tolerance_factor=1.2),
        ComparisonRow("regenerated traffic matches (closure test)", 1.0,
                      float(validation.passes())),
        ComparisonRow("periodicity survives regeneration", 1.0,
                      float(validation.periodicity_preserved)),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"model: {model.describe()}",
            "closure errors: "
            f"rate in {validation.rate_error_in:.3f}, "
            f"rate out {validation.rate_error_out:.3f}, "
            f"payload in {validation.payload_error_in:.3f}, "
            f"payload out {validation.payload_error_out:.3f}",
        ],
        extras={"model": model, "validation": validation},
    )
