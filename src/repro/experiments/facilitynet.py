"""Experiment X7 — facility network oversubscription sweep.

§IV's concentration warning, tested on shared queues instead of pure
sums: a heterogeneous fleet's busy-minute traffic streams through the
facility tree (server NICs → top-of-rack switches → core fabric →
Internet uplink) while the uplink's oversubscription ratio sweeps from
headroom to heavy overload.  Racks and core keep provisioning headroom,
so the uplink must be the concentration point that saturates first; its
loss must grow monotonically with oversubscription and track the fluid
(capacity-deficit) prediction, and the pipeline must stay bit-identical
across worker counts — the determinism contract of the fleet execution
layer extended to per-hop results.

Window/scaling policy: an 8-server / 4-rack facility over the busy
minute [3600 s, 3660 s) at packet level (per EXPERIMENTS.md, the
default busy-hour window's first minute); capacities derive from the
window's own percentile-100 envelope, so ratios are exact by
construction.
"""

from __future__ import annotations

import numpy as np

from repro.core.facility import oversubscribed_capacity
from repro.core.report import ComparisonRow
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.facilitynet.pipeline import (
    PipelineResult,
    rack_ingress_traces,
    run_hops,
)
from repro.facilitynet.report import (
    TIER_UPLINK,
    first_dropping_tier,
    ingress_envelope,
    latency_budget,
    sweep_uplink_oversubscription,
)
from repro.facilitynet.topology import build_topology, provision_from_envelope
from repro.fleet.execution import resolve_workers
from repro.fleet.profiles import hosting_facility

EXPERIMENT_ID = "facilitynet"
TITLE = "Facility network pipeline: uplink oversubscription sweep (8 servers, 4 racks)"
FACILITY_SERVERS = 8
FACILITY_RACKS = 4
HORIZON_S = 3720.0
#: Busy-minute facility packet window (first minute of the default busy hour).
WINDOW = (3600.0, 3660.0)
#: Uplink oversubscription ratios, headroom to heavy overload.
RATIOS = (0.8, 1.6, 3.2, 6.4)
#: Racks and core keep headroom so the uplink saturates first.
RACK_OVERSUBSCRIPTION = 0.5
CORE_OVERSUBSCRIPTION = 0.7
#: Worker counts of the determinism cross-check.
PARITY_WORKERS = (1, 4)


def _hop_fingerprint(result: PipelineResult) -> tuple:
    """Exact per-hop state: counts, byte totals and delay statistics."""
    return tuple(
        (
            report.name,
            report.offered,
            report.forwarded,
            report.dropped,
            report.offered_payload_bytes,
            report.forwarded_payload_bytes,
            report.mean_delay_s,
            report.max_delay_s,
        )
        for report in result.hops
    )


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Sweep uplink oversubscription; find the first-saturating tier."""
    fleet = hosting_facility(
        n_servers=FACILITY_SERVERS, duration=HORIZON_S, seed=seed
    )
    # placement shape only (capacities are re-derived per ratio below)
    shape = build_topology(
        FACILITY_SERVERS, FACILITY_RACKS, per_server_pps=1.0, per_server_bps=1.0
    )

    # main ingress honours --workers (workers=None -> one per CPU); the
    # explicit 1- and 4-worker runs feed the determinism cross-check.
    # Runs resolving to the same worker count are shared, not recomputed.
    ingress_cache = {}

    def ingress_for(workers):
        resolved = resolve_workers(workers, FACILITY_SERVERS)
        if resolved not in ingress_cache:
            ingress_cache[resolved] = rack_ingress_traces(
                fleet, shape, *WINDOW, workers=resolved, cache=config.cache
            )
        return ingress_cache[resolved]

    ingress = ingress_for(config.workers)
    ingress_serial = ingress_for(PARITY_WORKERS[0])
    ingress_parallel = ingress_for(PARITY_WORKERS[1])
    envelope = ingress_envelope(ingress, *WINDOW, percentile=100.0)

    sweep = sweep_uplink_oversubscription(
        fleet,
        ingress,
        envelope,
        *WINDOW,
        ratios=RATIOS,
        n_racks=FACILITY_RACKS,
        rack_oversubscription=RACK_OVERSUBSCRIPTION,
        core_oversubscription=CORE_OVERSUBSCRIPTION,
    )

    # per-hop determinism: rerun the most loaded point on the 1- and
    # 4-worker ingresses and compare every hop's counts and delay
    # statistics exactly (and against the --workers-controlled run)
    saturated_topology = provision_from_envelope(
        envelope,
        n_servers=FACILITY_SERVERS,
        n_racks=FACILITY_RACKS,
        rack_oversubscription=RACK_OVERSUBSCRIPTION,
        core_oversubscription=CORE_OVERSUBSCRIPTION,
        uplink_oversubscription=RATIOS[-1],
    )
    serial_result = run_hops(
        saturated_topology, ingress_serial, *WINDOW, seed=fleet.seed
    )
    parallel_result = run_hops(
        saturated_topology, ingress_parallel, *WINDOW, seed=fleet.seed
    )
    reference = _hop_fingerprint(sweep.results[-1])
    identical = (
        reference
        == _hop_fingerprint(serial_result)
        == _hop_fingerprint(parallel_result)
    )

    # fluid prediction of the saturated uplink's byte loss: the capacity
    # deficit of the mean offered load
    _, capacity_bps = oversubscribed_capacity(envelope, RATIOS[-1])
    fluid_loss = max(0.0, 1.0 - capacity_bps / envelope.mean_bandwidth_bps)

    top = sweep.results[-1]
    conservation = all(
        result.hop("core").offered
        == sum(report.forwarded for report in result.tier("rack"))
        and result.uplink.offered == result.hop("core").forwarded
        for result in sweep.results
    )
    budget = latency_budget(top)

    rows = [
        ComparisonRow(
            "uplink loss non-decreasing in oversubscription",
            1.0,
            float(bool(np.all(np.diff(sweep.uplink_loss) >= 0.0))),
        ),
        ComparisonRow(
            f"no uplink loss with headroom (ratio {RATIOS[0]})",
            1.0,
            float(sweep.uplink_loss[0] == 0.0),
        ),
        ComparisonRow(
            f"uplink byte loss at ratio {RATIOS[-1]} vs fluid prediction",
            fluid_loss,
            float(sweep.uplink_byte_loss[-1]),
            tolerance_factor=1.3,
        ),
        ComparisonRow(
            "first-saturating concentration point is the uplink",
            1.0,
            float(
                sweep.saturating_tier() == TIER_UPLINK
                and first_dropping_tier(top) == TIER_UPLINK
            ),
        ),
        ComparisonRow(
            f"per-hop results bit-identical ({PARITY_WORKERS[0]} vs "
            f"{PARITY_WORKERS[1]} workers)",
            1.0,
            float(identical),
            tolerance_factor=1.0 + 1e-9,
        ),
        ComparisonRow(
            "hop-to-hop conservation (offered = upstream forwarded)",
            1.0,
            float(conservation),
        ),
        ComparisonRow(
            "end-to-end latency grows under oversubscription",
            1.0,
            float(sweep.latency_mean_s[-1] > sweep.latency_mean_s[0]),
        ),
    ]
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"{FACILITY_SERVERS} servers / {FACILITY_RACKS} racks, window "
            f"[{WINDOW[0]:.0f}, {WINDOW[1]:.0f}) s; offered peak "
            f"{envelope.peak_bandwidth_bps / 1e6:.2f} Mbps "
            f"({envelope.peak_pps:.0f} pps), mean "
            f"{envelope.mean_bandwidth_bps / 1e6:.2f} Mbps",
            *sweep.render().splitlines(),
            f"saturated latency budget: "
            + ", ".join(
                f"{tier} {ms * 1e3:.2f} ms"
                for tier, ms in budget.tier_mean_s.items()
            )
            + f"; total {budget.total_mean_s * 1e3:.2f} ms "
            f"(dominant: {budget.dominant_tier})",
        ],
        extras={
            "sweep": sweep,
            "envelope": envelope,
            "latency_budget": budget,
            "parallel_identical": identical,
            "fluid_loss_prediction": fluid_loss,
        },
    )
