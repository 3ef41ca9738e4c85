"""Bench: facilitynet — hop traversal alone on pre-simulated ingress.

Times the rack, core and uplink hops on cached ingress, so regressions
in the shared FIFO kernel or the tail-drop link show up apart from
fleet simulation cost.  The experiment end to end is checked against
its tolerances by ``tests/test_experiment_facilitynet.py``.
"""

from __future__ import annotations

from repro.experiments import facilitynet
from repro.facilitynet.pipeline import rack_ingress_traces, run_hops
from repro.facilitynet.report import ingress_envelope
from repro.facilitynet.topology import build_topology, provision_from_envelope
from repro.fleet.profiles import hosting_facility


def test_bench_facilitynet_hops_only(benchmark):
    """Hop traversal on pre-simulated ingress (kernel + link cost only)."""
    fleet = hosting_facility(
        n_servers=facilitynet.FACILITY_SERVERS,
        duration=facilitynet.HORIZON_S,
        seed=0,
    )
    shape = build_topology(
        facilitynet.FACILITY_SERVERS,
        facilitynet.FACILITY_RACKS,
        per_server_pps=1.0,
        per_server_bps=1.0,
    )
    ingress = rack_ingress_traces(
        fleet, shape, *facilitynet.WINDOW, workers=1
    )
    envelope = ingress_envelope(ingress, *facilitynet.WINDOW, percentile=100.0)
    topology = provision_from_envelope(
        envelope,
        n_servers=facilitynet.FACILITY_SERVERS,
        n_racks=facilitynet.FACILITY_RACKS,
        rack_oversubscription=facilitynet.RACK_OVERSUBSCRIPTION,
        core_oversubscription=facilitynet.CORE_OVERSUBSCRIPTION,
        uplink_oversubscription=facilitynet.RATIOS[-1],
    )
    result = benchmark.pedantic(
        run_hops,
        args=(topology, ingress, *facilitynet.WINDOW),
        kwargs={"seed": fleet.seed},
        rounds=1,
        iterations=1,
    )
    assert result.uplink.dropped > 0
    offered = sum(report.offered for report in result.hops if report.tier == "rack")
    assert offered == sum(len(trace) for trace in ingress)
