"""Experiment X3 — §IV-A buffering ablation.

"For this application, adding buffers or combining packets does not
necessarily help performance since delayed packets can be worse than
dropped packets ... buffering the 50ms packet spikes will consume more
than a quarter of the maximum tolerable latency."

We sweep the device's queue depth on a 10-minute game window: loss falls
with buffer size, but the fraction of packets delivered past the
interactivity budget rises — buffering trades drops for equally-bad
lateness, confirming the paper's argument that only lookup capacity
fixes the problem (the capacity sweep shows that side).
"""

from __future__ import annotations

from repro.core.report import ComparisonRow
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.router.ablation import (
    buffer_sweep,
    buffering_helps_loss_but_not_experience,
    capacity_sweep,
)
from repro.router.device import DeviceProfile
from repro.workloads.scenarios import olygamer_scenario

EXPERIMENT_ID = "buffering"
TITLE = "Buffering vs lookup-capacity ablation (§IV-A)"
WINDOW = (3660.0, 4260.0)


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Sweep queue depths and lookup rates on a 10-minute game window."""
    scenario = olygamer_scenario(seed)
    trace = scenario.packet_window(*WINDOW)
    # the buffering question only bites on a loaded device: run the sweep
    # with the lookup engine near the offered rate (the §IV regime where
    # operators reach for buffers), capacities at default buffering
    offered = len(trace) / (WINDOW[1] - WINDOW[0])
    loaded = DeviceProfile(lookup_rate=max(400.0, offered * 1.08))
    buffers = buffer_sweep(trace, base_profile=loaded, seed=seed + 1)
    capacities = capacity_sweep(trace, seed=seed + 1)

    shallow, deep = buffers[0], buffers[-1]
    under = next(p for p in capacities if p.lookup_rate <= 900.0)
    over = next(p for p in capacities if p.lookup_rate >= 4000.0)

    rows = [
        ComparisonRow("deep buffers reduce loss", 1.0,
                      float(deep.inbound_loss + deep.outbound_loss
                            < shallow.inbound_loss + shallow.outbound_loss)),
        ComparisonRow("deep buffers increase budget-violating deliveries", 1.0,
                      float(deep.budget_violations > shallow.budget_violations)),
        ComparisonRow("buffering trades drops for lateness (verdict)", 1.0,
                      float(buffering_helps_loss_but_not_experience(buffers))),
        ComparisonRow("underprovisioned engine loses heavily", 1.0,
                      float(under.total_loss > 0.05)),
        ComparisonRow("capacity headroom eliminates loss", 1.0,
                      float(over.total_loss < 0.001)),
        ComparisonRow("capacity headroom keeps delay tiny (ms)", 0.5,
                      1000.0 * over.mean_delay, tolerance_factor=3.0),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            "buffer sweep (loss_in/out, p99 delay ms, late frac): "
            + "; ".join(
                f"q={p.queue_depth}: {p.inbound_loss:.3f}/{p.outbound_loss:.3f}, "
                f"{1000*p.p99_delay:.0f}ms, {p.budget_violations:.3f}"
                for p in buffers
            ),
            "capacity sweep (rate -> loss): "
            + "; ".join(
                f"{p.lookup_rate:.0f}pps: {p.total_loss:.4f}" for p in capacities
            ),
        ],
        extras={"buffers": buffers, "capacities": capacities},
    )
