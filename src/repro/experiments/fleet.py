"""Experiment X6 — hosting-facility fleet provisioning.

The paper's closing question ("how to provision for on-line games")
taken to facility scale: 16 heterogeneous servers — mixed slot counts,
popularity, map rotations and time-zone phases — simulated concurrently
and aggregated into one uplink demand.  Checks the scale-out claims the
fleet subsystem rests on:

* facility load is the sum of its servers (linearity, §IV-B);
* sharded parallel execution reproduces the serial aggregate
  bit-for-bit (determinism of the execution layer);
* statistical multiplexing makes the aggregate smoother than its
  parts, so sum-of-peaks provisioning overbuilds;
* the marginal (peak) cost of the Nth server stays near the facility's
  mean per-server share — the provisioning rule stays linear.

Window/scaling policy: per-server count-level series over a 2 h horizon
(the busy-hour shape is what provisioning sees; session simulation at
full fidelity), plus one 60 s facility packet window cross-checking the
count-level aggregate against merged packet-level truth.
"""

from __future__ import annotations

import numpy as np

from repro.core.facility import FacilityAnalysis
from repro.core.report import ComparisonRow
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.fleet.profiles import hosting_facility
from repro.fleet.scenario import FleetScenario
from repro.gameserver.fluid import fluid_series_equal
from repro.stats.regression import fit_line

EXPERIMENT_ID = "fleet"
TITLE = "Hosting-facility fleet provisioning (16 heterogeneous servers)"
FACILITY_SERVERS = 16
HORIZON_S = 7200.0
#: Busy-hour facility packet window for the fluid-vs-packet cross-check.
PACKET_WINDOW = (3600.0, 3660.0)
#: Worker count of the parallel verification run (>= 2 exercises the pool).
VERIFY_WORKERS = 2


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Simulate the facility serially and sharded; compare aggregates."""
    fleet = hosting_facility(
        n_servers=FACILITY_SERVERS, duration=HORIZON_S, seed=seed
    )
    scenario = FleetScenario(fleet, cache=config.cache)

    # serial reference: stream per-server series through the analysis
    analysis = FacilityAnalysis.from_series(scenario.iter_server_series())
    serial_aggregate = scenario.aggregate_per_second(workers=1)
    envelope = analysis.envelope()
    multiplexing = analysis.multiplexing()
    curve = analysis.provisioning_curve_bps()
    marginal = analysis.marginal_cost_bps()

    # parallel verification on a fresh scenario (no shared caches)
    parallel_aggregate = FleetScenario(
        fleet, cache=config.cache
    ).aggregate_per_second(workers=VERIFY_WORKERS)
    identical = fluid_series_equal(serial_aggregate, parallel_aggregate)

    # packet-level cross-check of the count-level aggregate
    window = scenario.aggregate_packet_window(*PACKET_WINDOW, workers=1)
    window_pps = len(window) / (PACKET_WINDOW[1] - PACKET_WINDOW[0])
    fluid_slice = serial_aggregate.packet_rates()[
        int(PACKET_WINDOW[0]) : int(PACKET_WINDOW[1])
    ]

    sum_mean_pps = float(analysis.per_server_mean_pps.sum())
    linear_fit = fit_line(np.arange(1, analysis.n_servers + 1), curve)
    mean_share = float(curve[-1]) / analysis.n_servers
    # single increments swing with the joining server's size, so the
    # provisioning claim is about the settled (back-half) average
    late_marginal_ratio = float(marginal[analysis.n_servers // 2 :].mean()) / mean_share

    rows = [
        ComparisonRow(
            "facility pps equals sum of per-server pps (ratio)",
            1.0,
            envelope.mean_pps / sum_mean_pps,
            tolerance_factor=1.05,
        ),
        ComparisonRow(
            f"parallel ({VERIFY_WORKERS} workers) aggregate bit-identical to serial",
            1.0,
            float(identical),
            tolerance_factor=1.0 + 1e-9,
        ),
        ComparisonRow(
            "packet-level facility window pps vs count-level (ratio)",
            1.0,
            window_pps / float(fluid_slice.mean()),
            tolerance_factor=1.3,
        ),
        ComparisonRow(
            "provisioning curve linear in N (R^2)",
            1.0,
            linear_fit.r_squared,
            tolerance_factor=1.08,
        ),
        ComparisonRow(
            "multiplexing smooths the aggregate (gain > 1)",
            1.0,
            float(multiplexing.gain > 1.0),
        ),
        ComparisonRow(
            "marginal cost of late servers near mean share (ratio)",
            1.0,
            late_marginal_ratio,
            tolerance_factor=2.0,
        ),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"{analysis.n_servers} servers x {HORIZON_S / 3600:.0f} h; "
            f"facility mean {envelope.mean_bandwidth_bps / 1e6:.2f} Mbps, "
            f"p{envelope.percentile:.0f} peak "
            f"{envelope.peak_bandwidth_bps / 1e6:.2f} Mbps",
            f"multiplexing gain {multiplexing.gain:.2f}; sum-of-peaks "
            f"overbuild {multiplexing.overbuild:.2f}x",
            "marginal peak cost per added server (kbps): "
            + ", ".join(f"{m / 1000:.0f}" for m in marginal),
        ],
        extras={
            "aggregate": serial_aggregate,
            "envelope": envelope,
            "multiplexing": multiplexing,
            "provisioning_curve_bps": curve,
            "marginal_cost_bps": marginal,
            "window_pps": window_pps,
        },
    )
