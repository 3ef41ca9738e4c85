"""Perf-trajectory records: ``BENCH_obs_<runner>.json``.

Speedups used to live only as test floors (kernel >= 5x, cache hits
asserted in benchmarks); this module turns them into a *measured
trajectory tracked across PRs*.  :func:`emit_bench_record` measures
four fleet-level throughput figures on small fixed workloads —

* ``kernel_pps`` — :func:`repro.kernels.fifo_forward` fast-path packets
  per second on a seeded 0.9-utilisation Poisson stream;
* ``cache_hit_rate_warm`` — warm-pass hit rate of a real
  :class:`~repro.fleet.cache.ShardCache` driven through
  :func:`~repro.fleet.execution.shard_map`;
* ``matchmaking_columnar_players_per_s`` — closed-loop connection
  attempts per wall second on the golden-regression scenario;
* ``matchmaking_qoe_players_per_s`` — the same with the QoE coupling
  and a regional outage on —

and **appends** them (with git revision, package/kernel versions and a
timestamp) to the JSON trajectory file, so each PR's benchmark run adds
one point instead of overwriting history.  The benchmark suite emits a
record automatically (``benchmarks/conftest.py``); CI uploads the file
as a workflow artifact.

Wall-clock numbers vary with hardware — the trajectory is for trend
reading (did this PR regress kernel throughput an order of magnitude?),
not for exact comparison, which is why records carry their revision.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

import repro
from repro.obs.export import NumpyJSONEncoder, git_revision

#: Trajectory file schema (a dict holding a ``records`` list).
BENCH_SCHEMA_VERSION = 1

#: Hard cap on trajectory length: the newest records win.  A committed
#: trajectory grows by one point per PR, so 200 covers years of history
#: while keeping the file reviewable in a diff.
MAX_BENCH_RECORDS = 200

#: Packets in the kernel throughput probe.
_KERNEL_PACKETS = 200_000
#: Tasks in the cache hit-rate probe.
_CACHE_TASKS = 8


@dataclass(frozen=True)
class _ProbeTask:
    """Tiny picklable task for the cache probe (module-level: cacheable)."""

    value: int


def _probe_worker(task: _ProbeTask) -> int:
    """Pure worker for the cache probe."""
    return task.value * task.value


def _measure_kernel_pps() -> float:
    """Fast-path FIFO throughput on a seeded Poisson stream."""
    from repro.kernels import fifo_forward

    rng = np.random.default_rng(0)
    arrivals = np.cumsum(rng.exponential(1.0, size=_KERNEL_PACKETS))
    services = np.full(_KERNEL_PACKETS, 0.9)  # utilisation 0.9
    t0 = time.perf_counter()
    fifo_forward(arrivals, services, primary_queue=64)
    wall = time.perf_counter() - t0
    return _KERNEL_PACKETS / wall if wall > 0 else 0.0


def _measure_cache_hit_rate() -> float:
    """Warm-pass hit rate of a ShardCache under shard_map."""
    from repro.fleet.cache import ShardCache
    from repro.fleet.execution import shard_map

    tasks = [_ProbeTask(i) for i in range(_CACHE_TASKS)]
    with tempfile.TemporaryDirectory(prefix="bench-obs-cache-") as root:
        cache = ShardCache(root)
        shard_map(_probe_worker, tasks, workers=1, cache=cache)  # cold
        cache.stats.reset()
        shard_map(_probe_worker, tasks, workers=1, cache=cache)  # warm
        served = cache.stats.hits + cache.stats.misses
        return cache.stats.hits / served if served else 0.0


def _measure_matchmaking_rate() -> Dict[str, float]:
    """Epoch-loop throughput on the golden-regression scenario."""
    from repro.fleet.profiles import hosting_facility
    from repro.matchmaking import PoolConfig, simulate_matchmaking

    fleet = hosting_facility(n_servers=3, duration=900.0, seed=3)
    config = PoolConfig.for_fleet(
        fleet,
        demand_ratio=3.0,
        epoch_length=60.0,
        session_duration_mean=180.0,
        session_duration_min=5.0,
    )
    t0 = time.perf_counter()
    result = simulate_matchmaking(fleet, "latency_aware", config)
    wall = time.perf_counter() - t0
    attempts = result.admission.attempts
    return {
        "matchmaking_columnar_players_per_s": (
            attempts / wall if wall > 0 else 0.0
        ),
        "matchmaking_attempts": float(attempts),
    }


def _measure_qoe_epoch_rate() -> Dict[str, float]:
    """Coupled epoch-loop throughput: QoE + scripted scenario active.

    Exercises the careful slot accounting (regional outage modulates
    capacities) and the per-admission QoE arithmetic, so a regression in
    the coupled path shows up even while the uncoupled figures hold.
    """
    from repro.fleet.profiles import hosting_facility
    from repro.matchmaking import (
        PoolConfig,
        QoeConfig,
        make_scenario,
        simulate_matchmaking,
    )

    fleet = hosting_facility(n_servers=3, duration=900.0, seed=3)
    config = PoolConfig.for_fleet(
        fleet,
        demand_ratio=3.0,
        epoch_length=60.0,
        session_duration_mean=180.0,
        session_duration_min=5.0,
    ).replace(qoe=QoeConfig(enabled=True))
    scenario = make_scenario("regional_outage", config.n_epochs)
    t0 = time.perf_counter()
    result = simulate_matchmaking(
        fleet,
        "latency_aware",
        config,
        scenario=scenario,
    )
    wall = time.perf_counter() - t0
    return {
        "matchmaking_qoe_players_per_s": (
            result.admission.attempts / wall if wall > 0 else 0.0
        ),
    }


def collect_perf_record() -> Dict[str, Any]:
    """One trajectory point: throughput figures + provenance."""
    from repro.kernels import KERNEL_VERSION

    record: Dict[str, Any] = {
        "recorded_unix": time.time(),
        "git_rev": git_revision(),
        "repro_version": repro.__version__,
        "kernel_version": KERNEL_VERSION,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_pps": _measure_kernel_pps(),
        "cache_hit_rate_warm": _measure_cache_hit_rate(),
    }
    record.update(_measure_matchmaking_rate())
    record.update(_measure_qoe_epoch_rate())
    return record


def compact_records(records: list) -> list:
    """Bound a trajectory: latest record per ``git_rev``, newest 200.

    Re-running benchmarks at one revision (local iteration, a re-pushed
    CI job) used to stack duplicate points; only the last run per rev is
    the trend signal, so earlier same-rev records are dropped.  Records
    without a ``git_rev`` (hand-written probes, unit tests) are never
    collapsed.  Order is preserved; when the file still exceeds
    :data:`MAX_BENCH_RECORDS` the oldest records go first.
    """
    last_by_rev: Dict[str, int] = {}
    for index, record in enumerate(records):
        rev = record.get("git_rev") if isinstance(record, dict) else None
        if rev is not None:
            last_by_rev[rev] = index
    compacted = [
        record
        for index, record in enumerate(records)
        if not isinstance(record, dict)
        or record.get("git_rev") is None
        or last_by_rev[record["git_rev"]] == index
    ]
    return compacted[-MAX_BENCH_RECORDS:]


def append_bench_record(path, record: Dict[str, Any]) -> None:
    """Append one record to the trajectory file (created if missing).

    The file is compacted on every append (see :func:`compact_records`),
    so the committed trajectory never grows without bound and never
    carries more than one point per revision.
    """
    path = Path(path)
    trajectory: Dict[str, Any] = {
        "schema": BENCH_SCHEMA_VERSION,
        "records": [],
    }
    if path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(loaded, dict) and isinstance(
                loaded.get("records"), list
            ):
                trajectory = loaded
        except (OSError, json.JSONDecodeError):
            pass  # corrupt trajectory: restart it rather than crash
    trajectory["schema"] = BENCH_SCHEMA_VERSION
    trajectory["records"].append(record)
    trajectory["records"] = compact_records(trajectory["records"])
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, cls=NumpyJSONEncoder, indent=2)
        handle.write("\n")
    os.replace(tmp, path)


def emit_bench_record(
    path: Optional[Path] = None, runner: Optional[str] = None
) -> Path:
    """Measure, append, and return the trajectory file's path.

    ``runner`` names the harness (default: the ``BENCH_RUNNER``
    environment variable, then ``"pytest"``) and selects the file
    ``BENCH_obs_<runner>.json`` in the working directory unless ``path``
    overrides it.
    """
    if path is None:
        runner = runner or os.environ.get("BENCH_RUNNER", "pytest")
        path = Path(f"BENCH_obs_{runner}.json")
    record = collect_perf_record()
    append_bench_record(path, record)
    return Path(path)


def load_trajectory(path) -> Dict[str, Any]:
    """Parse a trajectory file (``{"schema": .., "records": [..]}``)."""
    return json.loads(Path(path).read_text(encoding="utf-8"))
