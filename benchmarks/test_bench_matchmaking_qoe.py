"""Bench: the QoE-coupled epoch loop under a scripted demand scenario.

The coupling adds per-admission arithmetic (duration multiplier, balk
escalation) and the scenario adds per-epoch hazard/capacity modulation —
including the careful slot accounting the engine switches to when
effective capacities move.  This bench times the fully coupled loop at
fleet scale so a regression in the coupled path is visible even while
the uncoupled benches hold.  Parity with the per-attempt oracle under
the coupling is pinned by ``tests/test_matchmaking_qoe.py``.
"""

from __future__ import annotations

import numpy as np

from repro.fleet.profiles import hosting_facility
from repro.matchmaking import (
    PoolConfig,
    QoeConfig,
    make_scenario,
    simulate_matchmaking,
)

#: The coupled headline pool.
POOL_SIZE = 100_000
FLEET_SERVERS = 32
HORIZON_S = 1800.0


def _coupled_config(fleet, pool_size):
    config = PoolConfig.for_fleet(
        fleet,
        pool_size=pool_size,
        demand_ratio=2.0,
        epoch_length=60.0,
        session_duration_mean=300.0,
    )
    return config.replace(qoe=QoeConfig(enabled=True))


def coupled_columnar_run():
    fleet = hosting_facility(
        n_servers=FLEET_SERVERS, duration=HORIZON_S, seed=0
    )
    config = _coupled_config(fleet, pool_size=POOL_SIZE)
    scenario = make_scenario("regional_outage", config.n_epochs)
    return simulate_matchmaking(
        fleet, "latency_aware", config, scenario=scenario
    )


def test_bench_qoe_coupled_epoch_loop(benchmark):
    """Coupled columnar loop: 10^5 players, outage scenario, QoE on."""
    result = benchmark.pedantic(coupled_columnar_run, rounds=1, iterations=1)
    assert result.config.qoe.enabled
    assert result.scenario_name == "regional_outage"
    assert result.admission.admitted > 0
    # configured capacity is still never exceeded (effective capacity
    # may dip below occupancy while downed servers drain)
    assert np.all(
        result.occupancy <= np.asarray(result.capacities)[:, None]
    )
    # the coupling actually fired: some sessions were shortened
    mults = np.concatenate([m for m in result.qoe_multipliers if m.size])
    assert mults.size > 0 and float(mults.min()) < 1.0

