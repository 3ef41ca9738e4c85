"""Experiment X5 — closed-loop validation of the NAT experiment.

The Table IV pipeline replays a finished trace through the device
(open loop).  The paper's real experiment was closed loop: drops fed
back into gameplay.  Here live clients and a live server exchange
packets through the event-driven device, and we check that (a) the
open-loop approximation's headline results survive — inbound loss in the
1–2 % band and far above outbound — and (b) the feedback phenomena the
paper describes emerge on their own: the server freezes when its inbound
stream starves, and nobody times out on a clean path.
"""

from __future__ import annotations

from repro.core.report import ComparisonRow
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.gameserver.config import olygamer_week
from repro.gameserver.server import run_closed_loop
from repro.router.device import DeviceProfile
from repro.router.livedevice import LiveForwardingDevice

EXPERIMENT_ID = "closedloop"
TITLE = "Closed-loop NAT experiment (live server + clients)"
DURATION_S = 240.0
N_CLIENTS = 20


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Run live sessions with and without the device in the path."""
    profile = olygamer_week()
    clean = run_closed_loop(profile, N_CLIENTS, DURATION_S, seed=seed)

    def factory(scheduler):
        return LiveForwardingDevice(
            scheduler, DeviceProfile(), seed=seed + 50, horizon=DURATION_S + 10.0
        )

    behind = run_closed_loop(
        profile, N_CLIENTS, DURATION_S, seed=seed, transport_factory=factory
    )
    device = behind["device"]
    server = behind["server"]
    clean_server = clean["server"]
    clean_trace = clean["trace"]
    clean_pps = len(clean_trace) / DURATION_S
    expected_pps = N_CLIENTS * (
        1.0 / profile.client_update_interval
        + profile.ticks_per_second * profile.snapshot_send_probability
    )

    rows = [
        ComparisonRow("clean path: no timeouts, no freezes", 1.0,
                      float(clean_server.timeouts == 0
                            and clean_server.freeze_seconds < 0.5)),
        ComparisonRow("clean-path load matches the rate model (pps)",
                      expected_pps, clean_pps, tolerance_factor=1.25),
        ComparisonRow("inbound loss within the tolerable band",
                      0.013, device.stats.inbound_loss_rate, tolerance_factor=2.5),
        ComparisonRow("inbound loss far exceeds outbound", 1.0,
                      float(device.stats.inbound_loss_rate
                            > 5.0 * max(device.stats.outbound_loss_rate, 1e-6))),
        ComparisonRow("freezes emerge from inbound starvation", 1.0,
                      float(server.freeze_seconds > 0.0)),
        ComparisonRow("players survive the map (no mass timeout)", 1.0,
                      float(server.player_count >= N_CLIENTS * 0.8)),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"{N_CLIENTS} live clients for {DURATION_S:.0f}s; device loss "
            f"in {100*device.stats.inbound_loss_rate:.2f}% / "
            f"out {100*device.stats.outbound_loss_rate:.3f}%; "
            f"server froze {server.freeze_seconds:.2f}s",
            "open-loop Table IV numbers are validated when this and table4 "
            "agree on band and asymmetry",
        ],
        extras={"clean": clean, "behind": behind},
    )
