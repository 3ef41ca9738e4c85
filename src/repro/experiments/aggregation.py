"""Experiment X4 — §IV concentrated-deployment aggregation.

"a significant, concentrated deployment of on-line game servers will
have the potential for overwhelming current networking equipment" —
and the linear provisioning rule that fixes it.  We aggregate N busy
servers through one device: the SMC-class box degrades catastrophically
past one server, while a device provisioned by the linear rule
(per-server pps / utilisation target) carries every N cleanly.
"""

from __future__ import annotations

from repro.core.report import ComparisonRow
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.router.device import DeviceProfile, ForwardingEngine
from repro.workloads.aggregation import (
    aggregate_servers,
    offered_pps,
    required_capacity_linear,
)
from repro.workloads.scenarios import olygamer_scenario

EXPERIMENT_ID = "aggregation"
TITLE = "Multi-server aggregation through one device (§IV)"
WINDOW_LENGTH = 300.0
SERVER_COUNTS = (1, 2, 4)


def _loss_through(trace, lookup_rate: float, seed: int, queue_scale: int = 1) -> float:
    # buffer memory scales with device class, as it does in real gear
    profile = DeviceProfile(
        lookup_rate=lookup_rate,
        stall_interval_mean=1e12,
        freeze_threshold=10**9,
        wan_queue=16 * queue_scale,
        lan_queue=32 * queue_scale,
    )
    result = ForwardingEngine(profile, seed=seed).process(trace)
    return result.inbound_loss_rate + result.outbound_loss_rate


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Sweep co-located server counts against fixed and scaled devices."""
    scenario = olygamer_scenario(seed)
    fixed_losses = {}
    scaled_losses = {}
    rates = {}
    for n in SERVER_COUNTS:
        aggregate = aggregate_servers(scenario, n, window_length=WINDOW_LENGTH)
        rates[n] = offered_pps(aggregate, WINDOW_LENGTH)
        fixed_losses[n] = _loss_through(aggregate, 1250.0, seed + n)
        scaled = required_capacity_linear(rates[1], n)
        scaled_losses[n] = _loss_through(aggregate, scaled, seed + n,
                                         queue_scale=n)

    rows = [
        ComparisonRow("offered load scales linearly (4x vs 1x ratio)", 4.0,
                      rates[4] / rates[1], tolerance_factor=1.4),
        ComparisonRow("SMC-class device degrades at 2 servers (loss)", 0.30,
                      fixed_losses[2], tolerance_factor=2.5),
        ComparisonRow("SMC-class device collapses at 4 servers (loss)", 0.60,
                      fixed_losses[4], tolerance_factor=2.0),
        ComparisonRow("linear rule keeps 2-server loss below 1%", 1.0,
                      float(scaled_losses[2] < 0.01)),
        ComparisonRow("linear rule keeps 4-server loss below 1%", 1.0,
                      float(scaled_losses[4] < 0.01)),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            "aggregate rates: "
            + ", ".join(f"N={n}: {rates[n]:.0f} pps" for n in SERVER_COUNTS),
            "fixed 1250 pps device loss: "
            + ", ".join(f"N={n}: {fixed_losses[n]:.3f}" for n in SERVER_COUNTS),
            "linearly provisioned device loss: "
            + ", ".join(f"N={n}: {scaled_losses[n]:.4f}" for n in SERVER_COUNTS),
        ],
        extras={"rates": rates, "fixed": fixed_losses, "scaled": scaled_losses},
    )
