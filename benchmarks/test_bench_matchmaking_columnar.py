"""Bench: the matchmaking engine vs the per-attempt oracle at 1e5 and
1e6 players.

The engine (:mod:`repro.matchmaking.columnar`) batches the epoch loop
at provable no-contention points — full-facility refusal spans, argmax
fill spans, and the saturated departure/attempt alternation window —
and calls the policy's own ``select`` one attempt at a time only where
contention makes per-attempt order load-bearing.  This bench pins the
speedup that batching buys: the engine and the scalar oracle kept in
``tests/matchmaking_reference.py`` run the *same* saturated
flash-crowd scenario (demand far above capacity, the paper's
busy-server regime) and the engine's result must be bit-identical while
clearing a ≥3x wall-clock floor at 10^6 players.

Wall-clock floors are deliberately conservative (CI machines are
noisy); trends are read from the repo benchmark, ``python3 -m
benchmarks.perf`` (``matchmaking.attempts_per_s`` and the
``provision``/``churn`` workloads).
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from repro.fleet.profiles import hosting_facility
from repro.matchmaking import PoolConfig, simulate_matchmaking
from repro.matchmaking.rtt import RttMatrix


def _load_oracle():
    """The per-attempt oracle module (``tests/`` is not a package)."""
    path = Path(__file__).resolve().parents[1] / "tests" / "matchmaking_reference.py"
    spec = importlib.util.spec_from_file_location("matchmaking_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


simulate_reference = _load_oracle().simulate_reference

#: Saturated flash-crowd: offered attempt load = 32x facility slots.
DEMAND_RATIO = 32.0
#: Long sessions keep the facility pinned at full between departures.
SESSION_MEAN_S = 900.0
SESSION_MIN_S = 5.0
EPOCH_S = 60.0
HORIZON_S = 1800.0

#: (pool size, servers, wall-clock floor) per tier.  The 1e6 tier is
#: the acceptance floor; 1e5 documents the small-pool behaviour (the
#: batched spans still win, but fixed per-epoch costs dilute the win).
TIERS = {
    "1e5": (100_000, 64, None),
    "1e6": (1_000_000, 512, 3.0),
}

POLICIES = ("least_loaded", "latency_aware")


def _scenario(pool_size: int, n_servers: int):
    fleet = hosting_facility(n_servers=n_servers, duration=HORIZON_S, seed=11)
    config = PoolConfig.for_fleet(
        fleet,
        pool_size=pool_size,
        demand_ratio=DEMAND_RATIO,
        epoch_length=EPOCH_S,
        session_duration_mean=SESSION_MEAN_S,
        session_duration_min=SESSION_MIN_S,
    )
    rtt = RttMatrix.for_fleet(fleet, config.region_profile, seed=11)
    return fleet, config, rtt


def _identical(a, b) -> bool:
    return (
        a.describe() == b.describe()
        and np.array_equal(a.occupancy, b.occupancy)
        and a.sessions == b.sessions
        and a.repeat_assignments == b.repeat_assignments
        and np.array_equal(a.per_server_attempts, b.per_server_attempts)
        and np.array_equal(
            a.per_server_rejections, b.per_server_rejections
        )
        and all(
            np.array_equal(u, v)
            for u, v in zip(a.session_rtts, b.session_rtts)
        )
    )


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("policy", POLICIES)
def test_bench_columnar_vs_scalar(benchmark, tier, policy):
    """Engine vs scalar oracle: bit-identical, ≥3x at 1e6 players."""
    pool_size, n_servers, floor = TIERS[tier]
    fleet, config, rtt = _scenario(pool_size, n_servers)

    # best-of-N on the floor tier, so a scheduler hiccup on a shared CI
    # runner cannot flip the ratio (the kernels-bench pattern; measured
    # ~4.2-4.5x against the 3x floor)
    rounds = 2 if floor is not None else 1

    scalar_wall = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        scalar = simulate_reference(fleet, policy, config, rtt=rtt)
        scalar_wall = min(scalar_wall, time.perf_counter() - t0)

    def run_columnar():
        return simulate_matchmaking(fleet, policy, config, rtt=rtt)

    columnar_wall = float("inf")
    for _ in range(rounds - 1):
        t0 = time.perf_counter()
        run_columnar()
        columnar_wall = min(columnar_wall, time.perf_counter() - t0)
    t0 = time.perf_counter()
    columnar = benchmark.pedantic(run_columnar, rounds=1, iterations=1)
    columnar_wall = min(columnar_wall, time.perf_counter() - t0)

    # the saturated regime must actually refuse attempts — otherwise
    # the bench is measuring the wrong operating point
    assert scalar.admission.rejected > scalar.admission.admitted
    assert _identical(scalar, columnar)
    if floor is not None:
        speedup = scalar_wall / columnar_wall if columnar_wall > 0 else 0.0
        print(
            f"\n{policy} {tier}: scalar {scalar_wall:.2f}s, columnar "
            f"{columnar_wall:.2f}s -> {speedup:.1f}x"
        )
        assert speedup >= floor, (
            f"columnar speedup {speedup:.2f}x below {floor}x floor "
            f"(scalar {scalar_wall:.2f}s, columnar {columnar_wall:.2f}s)"
        )
