"""The four benchmark workloads.

Each workload is a batch run: a fixed input, built from a program seed
by ``setup``, runs to completion once per rep.  ``rep`` is the only timed
call.  ``summarise`` (untimed) reduces the rep's results to a plain dict
holding a ``digest`` of the outputs, any per-layer values only the
workload can see (``layer``) and the inputs of ``checks``, which returns
``(name, ok)`` pairs.

``setup`` imports the layers it needs, so import time counts as set-up.
``rep`` reaches every layer through its module attribute at call time,
which lets the traced run's wrappers (:mod:`.tracing`) see each call.

A rep is sized to take 1.5-4 s on a 2-core box, so that a run of a
few tens of seconds holds enough reps for a steady median.

The benchmark's ``--seed`` is the program seed, except for the seeds
listed in a workload's ``failing_seeds``, which move on to the next seed
not listed.  On those the program's packet synthesis raises
``ValueError: time went backwards`` in ``repro.gameserver.downloads``
(it plans downloads in session order, and a joiner's download may start
before the previous one's last chunk).  Of program seeds 0-99 only
``paper`` seed 5 does; ``router`` uses a window that no seed trips.
``provision`` would fail on 14 of seeds 0-59, so its players download
nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tempfile
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, FrozenSet, List, Tuple

#: Process-pool size of the fleet stages (the benchmark box has 2 cores).
WORKERS = 2

Checks = List[Tuple[str, bool]]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see the module docstring)."""

    name: str
    setup: Callable[[int, Path], Any]
    rep: Callable[[Any, Callable], Any]
    summarise: Callable[[Any, Any, Dict[str, Any]], Dict[str, Any]]
    checks: Callable[[Dict[str, Any]], Checks]
    #: Program seeds on which the program raises (see the module docstring).
    failing_seeds: FrozenSet[int] = frozenset()
    #: Also run one rep inside a ``repro.obs`` trace session (traced runs).
    session_rep: bool = False

    def program_seed(self, seed: int) -> int:
        """The program seed the benchmark's ``seed`` selects."""
        while seed in self.failing_seeds:
            seed += 1
        return seed


def digest(*parts) -> str:
    """Short sha256 over arrays (raw bytes) and plain values (``repr``)."""
    h = hashlib.sha256()
    for part in parts:
        if hasattr(part, "tobytes"):
            h.update(str(part.dtype).encode())
            h.update(part.tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# paper: the trace analyses on a freshly synthesised week
# ----------------------------------------------------------------------
#: The paper ids whose inputs come from the shared week's short windows.
#: ``fig11`` (a 2-hour packet window) and the three NAT replays
#: (``table4``, ``fig14``, ``fig15``) would triple the rep; the NAT
#: device is measured by ``router`` instead.
PAPER_IDS = (
    "table1", "table2", "table3",
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig9", "fig10", "fig12", "fig13",
)


def _paper_setup(seed: int, scratch: Path) -> Any:
    from repro.experiments import runner
    from repro.workloads import scenarios

    return SimpleNamespace(seed=seed, runner=runner, scenarios=scenarios)


def _paper_rep(inputs: Any, span: Callable) -> Any:
    # the shared week is re-synthesised every rep: CLI users pay for it
    # on every run
    inputs.scenarios.clear_scenario_cache()
    outputs = []
    for experiment_id in PAPER_IDS:
        with span("experiments"):
            outputs.append(inputs.runner.REGISTRY[experiment_id](inputs.seed))
    return outputs


def _paper_summarise(inputs: Any, outputs: Any, counters: Dict[str, Any]) -> Dict[str, Any]:
    # drop the week now, so every rep starts from the same memory state
    inputs.scenarios.clear_scenario_cache()
    misses = [
        f"{output.experiment_id}: {row.name}"
        for output in outputs
        for row in output.rows
        if not row.ok
    ]
    return {
        "digest": digest(*(output.render() for output in outputs)),
        "ids": [output.experiment_id for output in outputs],
        "row_counts": [len(output.rows) for output in outputs],
        "tolerance_misses": misses,
        "layer": {"experiments.rows_outside_tolerance": len(misses)},
    }


def _paper_checks(summary: Dict[str, Any]) -> Checks:
    return [
        ("every paper experiment ran", summary["ids"] == list(PAPER_IDS)),
        (
            "every experiment reported comparison rows",
            all(count > 0 for count in summary["row_counts"]),
        ),
    ]


# ----------------------------------------------------------------------
# router: route cache, NAT replay, live closed loop behind the device
# ----------------------------------------------------------------------
ROUTER_WINDOW = (3600.0, 3900.0)
#: Packets taken from the window's start (it holds 193k-280k over program
#: seeds 0-11), so the work does not vary with the seed.
ROUTER_GAME_PACKETS = 30_000
NAT_PACKETS = 100_000
CACHE_CAPACITY = 64
LIVE_CLIENTS = 20
LIVE_DURATION_S = 45.0


def _router_setup(seed: int, scratch: Path) -> Any:
    import numpy as np

    from repro.gameserver import config, server
    from repro.router import cache, device, livedevice, nat
    from repro.workloads import scenarios, web

    trace = scenarios.olygamer_scenario(seed).packet_window(*ROUTER_WINDOW)
    scenarios.clear_scenario_cache()
    if len(trace) < NAT_PACKETS:
        raise ValueError(
            f"seed {seed}: {len(trace)} packets in {ROUTER_WINDOW}, "
            f"fewer than the {NAT_PACKETS} the workload takes"
        )
    rng = np.random.default_rng(seed + 7)
    game_keys = trace.dst_addrs[:ROUTER_GAME_PACKETS].astype(np.int64)
    game_sizes = trace.payload_sizes[:ROUTER_GAME_PACKETS].astype(np.int64)
    web_keys, web_sizes = web.generate_web_packets(
        web.WebTrafficModel(), game_keys.size, rng
    )
    keys, sizes, labels = web.interleave_streams(
        rng, game_keys, game_sizes, web_keys, web_sizes
    )
    return SimpleNamespace(
        seed=seed,
        keys=keys,
        sizes=sizes,
        labels=labels,
        nat_trace=trace.select(np.arange(len(trace)) < NAT_PACKETS),
        profile=config.olygamer_week(),
        cache=cache,
        device=device,
        livedevice=livedevice,
        nat=nat,
        server=server,
    )


def _router_rep(inputs: Any, span: Callable) -> Any:
    route_cache = inputs.cache
    stats = {
        policy.value: route_cache.simulate_cache(
            inputs.keys,
            inputs.sizes,
            route_cache.RouteCache(CACHE_CAPACITY, policy=policy),
            labels=inputs.labels,
        )
        for policy in route_cache.EvictionPolicy
    }
    translated = inputs.nat.NatDevice(seed=inputs.seed + 100).run(inputs.nat_trace)

    def transport(scheduler):
        return inputs.livedevice.LiveForwardingDevice(
            scheduler,
            inputs.device.DeviceProfile(),
            seed=inputs.seed + 50,
            horizon=LIVE_DURATION_S + 10.0,
        )

    live = inputs.server.run_closed_loop(
        inputs.profile,
        LIVE_CLIENTS,
        LIVE_DURATION_S,
        seed=inputs.seed,
        transport_factory=transport,
    )
    return stats, translated, live


def _router_summarise(inputs: Any, raw: Any, counters: Dict[str, Any]) -> Dict[str, Any]:
    stats, translated, live = raw
    device = live["device"].stats
    policies = {
        name: {
            "hits": s.hits,
            "misses": s.misses,
            "game_hit_rate": s.class_hit_rate("game"),
        }
        for name, s in stats.items()
    }
    forwarding = translated.forwarding
    nat = {
        "packets": len(inputs.nat_trace),
        "offered": forwarding.inbound_offered + forwarding.outbound_offered,
        "suppressed": forwarding.suppressed_count,
        "in_loss": forwarding.inbound_loss_rate,
        "out_loss": forwarding.outbound_loss_rate,
        "table_created": translated.table_created,
    }
    directions = {
        "in": (device.offered_in, device.forwarded_in, device.dropped_in),
        "out": (device.offered_out, device.forwarded_out, device.dropped_out),
    }
    lookups = int(inputs.keys.size)
    return {
        "digest": digest(
            sorted(policies.items()),
            sorted(nat.items()),
            forwarding.fates,
            sorted(directions.items()),
            live["server"].freeze_seconds,
            live["scheduler"].executed_count,
            live["trace"].timestamps,
        ),
        "lookups": lookups,
        "policies": policies,
        "nat": nat,
        "directions": directions,
    }


def _router_checks(summary: Dict[str, Any]) -> Checks:
    policies = summary["policies"]
    lru = policies["lru"]["game_hit_rate"]
    nat = summary["nat"]
    checks = [
        (f"{name}: hits + misses = lookups", p["hits"] + p["misses"] == summary["lookups"])
        for name, p in sorted(policies.items())
    ]
    checks += [
        (
            f"{name} game hit rate > lru",
            policies[name]["game_hit_rate"] > lru,
        )
        for name in ("size-preferential", "frequency-preferential")
    ]
    checks += [
        ("nat: offered + suppressed = packets", nat["offered"] + nat["suppressed"] == nat["packets"]),
        ("nat: incoming loss > outgoing loss", nat["in_loss"] > nat["out_loss"]),
        ("nat: bindings were created", nat["table_created"] > 0),
    ]
    checks += [
        (
            f"live device {direction}: forwarded + dropped <= offered",
            forwarded + dropped <= offered,
        )
        for direction, (offered, forwarded, dropped) in sorted(
            summary["directions"].items()
        )
    ]
    return checks


# ----------------------------------------------------------------------
# provision: matchmaking at 5x10^5 players -> facility ingress -> hops
# ----------------------------------------------------------------------
#: Seed of the facilities (server count, capacities, regions) in
#: ``provision`` and ``churn``: the benchmark seed draws the players, their
#: RTTs and arrivals.  A facility drawn per seed would change a rep's work
#: by up to 10% (``churn``'s 64 servers hold 1238-1374 slots over seeds
#: 0-9), more than the timing bound.
FACILITY_SEED = 0
PROVISION_SERVERS = 256
PROVISION_RACKS = 16
PROVISION_POOL = 500_000
PROVISION_WINDOW = (3000.0, 3002.0)
UPLINK_RATIOS = (0.8, 3.2)


def _provision_setup(seed: int, scratch: Path) -> Any:
    from repro import matchmaking
    from repro.facilitynet import pipeline, report, topology
    from repro.fleet.profiles import hosting_facility

    fleet = hosting_facility(
        n_servers=PROVISION_SERVERS, duration=3600.0, seed=FACILITY_SEED
    )
    config = matchmaking.PoolConfig.for_fleet(
        fleet,
        pool_size=PROVISION_POOL,
        demand_ratio=32.0,
        epoch_length=60.0,
        session_duration_mean=900.0,
        session_duration_min=5.0,
        # no logo/map downloads: with them the program's download planner
        # raises on about one seed in four (see the module docstring)
        base_profile=dataclasses.replace(fleet.base_profile, download_probability=0.0),
    )
    return SimpleNamespace(
        seed=seed,
        fleet=fleet,
        config=config,
        rtt=matchmaking.RttMatrix.for_fleet(
            fleet, config.region_profile, seed=seed
        ),
        # placement shape only: capacities come from the ingress envelope
        shape=topology.build_topology(
            PROVISION_SERVERS, PROVISION_RACKS, per_server_pps=1.0, per_server_bps=1.0
        ),
        matchmaking=matchmaking,
        pipeline=pipeline,
        report=report,
        topology=topology,
    )


def _provision_rep(inputs: Any, span: Callable) -> Any:
    result = inputs.matchmaking.simulate_matchmaking(
        inputs.fleet,
        "latency_aware",
        inputs.config,
        seed=inputs.seed,
        rtt=inputs.rtt,
        engine="columnar",
    )
    ingress = inputs.pipeline.rack_ingress_traces(
        inputs.fleet,
        inputs.shape,
        *PROVISION_WINDOW,
        workers=WORKERS,
        assignments=result.sessions,
    )
    envelope = inputs.report.ingress_envelope(ingress, *PROVISION_WINDOW)
    topologies = {
        ratio: inputs.topology.provision_from_envelope(
            envelope,
            n_servers=PROVISION_SERVERS,
            n_racks=PROVISION_RACKS,
            rack_oversubscription=0.5,
            core_oversubscription=0.7,
            uplink_oversubscription=ratio,
        )
        for ratio in UPLINK_RATIOS
    }
    # racks and core are provisioned alike at every ratio: walk them once
    fabric = inputs.pipeline.run_fabric(
        topologies[UPLINK_RATIOS[0]], ingress, *PROVISION_WINDOW, seed=inputs.seed
    )
    uplinks = {
        ratio: inputs.pipeline.finish_uplink(topologies[ratio], fabric)
        for ratio in UPLINK_RATIOS
    }
    return result, [len(trace) for trace in ingress], uplinks


def _provision_summarise(inputs: Any, raw: Any, counters: Dict[str, Any]) -> Dict[str, Any]:
    import numpy as np

    result, ingress_packets, uplinks = raw
    capacities = np.asarray(result.capacities)[:, None]
    hops = {
        ratio: [
            {
                "name": hop.name,
                "tier": hop.tier,
                "offered": hop.offered,
                "forwarded": hop.forwarded,
                "dropped": hop.dropped,
            }
            for hop in pipeline_result.hops
        ]
        for ratio, pipeline_result in uplinks.items()
    }
    admission = result.admission
    return {
        "digest": digest(
            (admission.attempts, admission.admitted, admission.rejected),
            result.occupancy,
            ingress_packets,
            sorted(hops.items()),
        ),
        "sessions": sum(len(sessions) for sessions in result.sessions),
        "admitted": admission.admitted,
        "occupancy_within_capacity": bool(np.all(result.occupancy <= capacities)),
        "hops": hops,
    }


def _provision_checks(summary: Dict[str, Any]) -> Checks:
    checks = [
        ("session records = admitted", summary["sessions"] == summary["admitted"]),
        ("occupancy <= capacity", summary["occupancy_within_capacity"]),
    ]
    for ratio, hops in sorted(summary["hops"].items()):
        by_tier: Dict[str, list] = {}
        for hop in hops:
            by_tier.setdefault(hop["tier"], []).append(hop)
        (core,) = by_tier["core"]
        (uplink,) = by_tier["uplink"]
        checks += [
            (
                f"ratio {ratio}: offered = forwarded + dropped at every hop",
                all(h["offered"] == h["forwarded"] + h["dropped"] for h in hops),
            ),
            (
                f"ratio {ratio}: core offered = rack forwarded",
                core["offered"] == sum(h["forwarded"] for h in by_tier["rack"]),
            ),
            (
                f"ratio {ratio}: uplink offered = core forwarded",
                uplink["offered"] == core["forwarded"],
            ),
        ]
        if ratio < 1.0:
            checks.append((f"ratio {ratio}: no uplink loss", uplink["dropped"] == 0))
        else:
            checks.append((f"ratio {ratio}: uplink loss", uplink["dropped"] > 0))
    return checks


# ----------------------------------------------------------------------
# churn: QoE-coupled matchmaking through an outage + cached aggregation
# ----------------------------------------------------------------------
CHURN_SERVERS = 64
CHURN_POOL = 150_000
CHURN_POLICIES = ("latency_aware", "capacity_aware")


def _churn_setup(seed: int, scratch: Path) -> Any:
    from repro import matchmaking
    from repro.fleet import cache, scenario
    from repro.fleet.profiles import hosting_facility
    from repro.gameserver import fluid

    fleet = hosting_facility(n_servers=CHURN_SERVERS, duration=3600.0, seed=FACILITY_SEED)
    config = matchmaking.PoolConfig.for_fleet(
        fleet,
        pool_size=CHURN_POOL,
        demand_ratio=2.0,
        epoch_length=60.0,
        session_duration_mean=300.0,
    ).replace(qoe=matchmaking.QoeConfig(enabled=True))
    return SimpleNamespace(
        seed=seed,
        fleet=fleet,
        config=config,
        scenario=matchmaking.make_scenario("regional_outage", config.n_epochs),
        rtt=matchmaking.RttMatrix.for_fleet(fleet, config.region_profile, seed=seed),
        scratch=scratch,
        matchmaking=matchmaking,
        cache=cache,
        fleet_scenario=scenario,
        fluid=fluid,
    )


def _churn_rep(inputs: Any, span: Callable) -> Any:
    results = {
        policy: inputs.matchmaking.simulate_matchmaking(
            inputs.fleet,
            policy,
            inputs.config,
            seed=inputs.seed,
            rtt=inputs.rtt,
            scenario=inputs.scenario,
        )
        for policy in CHURN_POLICIES
    }
    with tempfile.TemporaryDirectory(dir=inputs.scratch) as root:
        shard_cache = inputs.cache.ShardCache(root)
        aggregates = {}
        for phase in ("cold", "warm"):
            shard_cache.reset_stats()
            with span(f"fleet.cache.{phase}"):
                aggregates[phase] = inputs.fleet_scenario.FleetScenario.from_matchmaking(
                    results[CHURN_POLICIES[0]], cache=shard_cache
                ).aggregate_per_second(workers=WORKERS)
        stats = shard_cache.stats
        hit_rate = stats.hits / (stats.hits + stats.misses)
    return results, aggregates, hit_rate


def _churn_summarise(inputs: Any, raw: Any, counters: Dict[str, Any]) -> Dict[str, Any]:
    import numpy as np

    results, aggregates, hit_rate = raw
    cold = aggregates["cold"]
    policies = {}
    for name, result in results.items():
        admission = result.admission
        multipliers = [m for m in result.qoe_multipliers if m.size]
        policies[name] = {
            "admission": (
                admission.attempts,
                admission.admitted,
                admission.rejected,
                admission.balked,
                admission.retried,
            ),
            "occupancy_within_capacity": bool(
                np.all(result.occupancy <= np.asarray(result.capacities)[:, None])
            ),
            "qoe_min_multiplier": min(float(m.min()) for m in multipliers)
            if multipliers
            else 1.0,
        }
    return {
        "digest": digest(
            sorted(policies.items()),
            *(results[name].occupancy for name in CHURN_POLICIES),
            cold.in_counts,
            cold.out_counts,
            cold.in_bytes,
            cold.out_bytes,
        ),
        "policies": policies,
        "warm_equals_cold": inputs.fluid.fluid_series_equal(cold, aggregates["warm"]),
        "warm_hit_rate": hit_rate,
        "layer": {"fleet.cache.hit_rate": hit_rate},
    }


def _churn_checks(summary: Dict[str, Any]) -> Checks:
    policies = summary["policies"]
    checks = [
        (f"{name}: occupancy <= configured capacity", p["occupancy_within_capacity"])
        for name, p in sorted(policies.items())
    ]
    checks += [
        (
            "some QoE multiplier < 1",
            policies[CHURN_POLICIES[0]]["qoe_min_multiplier"] < 1.0,
        ),
        ("warm aggregate equals cold aggregate", summary["warm_equals_cold"]),
        ("warm pass hit rate is 1", summary["warm_hit_rate"] == 1.0),
    ]
    return checks


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "paper",
            _paper_setup,
            _paper_rep,
            _paper_summarise,
            _paper_checks,
            failing_seeds=frozenset({5}),
        ),
        Workload("router", _router_setup, _router_rep, _router_summarise, _router_checks),
        Workload(
            "provision",
            _provision_setup,
            _provision_rep,
            _provision_summarise,
            _provision_checks,
        ),
        Workload(
            "churn",
            _churn_setup,
            _churn_rep,
            _churn_summarise,
            _churn_checks,
            session_rep=True,
        ),
    )
}
