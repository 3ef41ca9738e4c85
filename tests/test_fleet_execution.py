"""Determinism and sharding tests for the fleet execution layer.

The contract under test: the same fleet seed yields bit-identical
facility aggregates for 1, 2, and 4 workers — the whole point of
index-derived seeds plus index-ordered folding.
"""

import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.experiments.base import RunConfig, RunConfigError
from repro.fleet import (
    FleetScenario,
    available_cpus,
    fleet_server_seed,
    hosting_facility,
    resolve_workers,
    shard_map,
    shard_map_fold,
)
from repro.fleet.cache import ShardCache
from repro.fleet.execution import _chunk_size
from repro.gameserver.config import quick_test_profile

FLUID_ARRAYS = ("in_counts", "out_counts", "in_bytes", "out_bytes")
TRACE_ARRAYS = (
    "timestamps",
    "directions",
    "src_addrs",
    "dst_addrs",
    "src_ports",
    "dst_ports",
    "payload_sizes",
    "protocols",
)


def small_fleet(seed: int = 5):
    return hosting_facility(
        n_servers=4,
        duration=600.0,
        seed=seed,
        base_profile=quick_test_profile(600.0),
    )


def assert_same_arrays(a, b, names):
    for name in names:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestFleetDeterminism:
    @pytest.fixture(scope="class")
    def serial_series(self):
        return FleetScenario(small_fleet()).aggregate_per_second(workers=1)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_series_bit_identical_across_worker_counts(self, serial_series, workers):
        sharded = FleetScenario(small_fleet()).aggregate_per_second(workers=workers)
        assert_same_arrays(serial_series, sharded, FLUID_ARRAYS)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_packet_window_bit_identical_across_worker_counts(self, workers):
        serial = FleetScenario(small_fleet()).aggregate_packet_window(
            0.0, 90.0, workers=1
        )
        sharded = FleetScenario(small_fleet()).aggregate_packet_window(
            0.0, 90.0, workers=workers
        )
        assert len(serial) > 0
        assert_same_arrays(serial, sharded, TRACE_ARRAYS)

    def test_different_fleet_seed_changes_aggregate(self, serial_series):
        other = FleetScenario(small_fleet(seed=6)).aggregate_per_second(workers=1)
        assert not np.array_equal(serial_series.in_counts, other.in_counts)

    def test_server_seeds_are_per_index_and_stable(self):
        seeds = [fleet_server_seed(5, i) for i in range(8)]
        assert len(set(seeds)) == 8
        assert seeds == [fleet_server_seed(5, i) for i in range(8)]

    def test_aggregate_caching_returns_same_object(self):
        scenario = FleetScenario(small_fleet())
        assert scenario.aggregate_per_second(workers=1) is (
            scenario.aggregate_per_second(workers=4)
        )
        scenario.clear_caches()
        assert scenario.aggregate_per_second(workers=1) is not None


class TestShardMapFold:
    def test_fold_order_is_task_order(self):
        result = shard_map(_double, list(range(10)), workers=3)
        assert result == [2 * i for i in range(10)]

    def test_serial_path_used_for_single_worker(self):
        # unpicklable fn is fine serially — proves no pool is spun up
        result = shard_map_fold(
            lambda x: x + 1, [1, 2, 3], lambda acc, r: acc + [r], [], workers=1
        )
        assert result == [2, 3, 4]

    def test_worker_exceptions_propagate(self):
        with pytest.raises(ValueError, match="boom"):
            shard_map(_explode_on_two, [1, 2, 3], workers=2)

    def test_resolve_workers_clamps_to_tasks(self):
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(1, 100) == 1
        assert resolve_workers(None, 2) <= 2

    def test_resolve_workers_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0, 4)

    def test_default_workers_setting(self):
        # None is one worker per CPU; a RunConfig carries any other count
        assert resolve_workers(None, 100) == min(available_cpus(), 100)
        assert resolve_workers(RunConfig(workers=1).workers, 100) == 1
        with pytest.raises(RunConfigError) as excinfo:
            RunConfig(workers=0)
        assert excinfo.value.field == "workers"


def _double(x: int) -> int:
    return 2 * x


def _explode_on_two(x: int) -> int:
    if x == 2:
        raise ValueError("boom")
    return x


@dataclass(frozen=True)
class DrawTask:
    """A cacheable task whose result is a few seeded float draws."""

    seed: int


def _draw(task: DrawTask) -> np.ndarray:
    return np.random.default_rng(task.seed).random(4)


def _explode_on_four(x: int) -> int:
    if x == 4:
        raise ValueError("boom at 4")
    return x


def _mark_started(task) -> int:
    """Leave a marker when the task starts; task 0 is slow."""
    root, index = task
    with open(os.path.join(root, str(index)), "w"):
        pass
    if index == 0:
        time.sleep(0.3)
    return index


class TestChunkedSubmissions:
    """Pool futures carry runs of tasks; the fold still sees task order."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("n_tasks", [1, 15, 17, 257])
    def test_order_and_bit_identity(self, n_tasks, workers):
        tasks = [DrawTask(seed) for seed in range(n_tasks)]
        serial = shard_map(_draw, tasks, workers=1)
        sharded = shard_map(_draw, tasks, workers=workers)
        assert len(sharded) == n_tasks
        for a, b in zip(serial, sharded):
            assert a.tobytes() == b.tobytes()

    def test_chunk_size_rule(self):
        # about eight chunks per worker, never empty
        assert _chunk_size(256, 2) == 16
        assert _chunk_size(64, 2) == 4
        assert _chunk_size(16, 2) == 1
        assert _chunk_size(1, 3) == 1
        assert _chunk_size(257, 3) == 11

    def test_partly_warm_cache_splits_miss_runs(self, tmp_path):
        tasks = [DrawTask(seed) for seed in range(60)]
        warm = tasks[::3]
        cache = ShardCache(tmp_path)
        shard_map(_draw, warm, workers=1, cache=cache)
        # the 40 misses run three to a chunk, and each chunk's indexes
        # skip the cached tasks between them
        assert _chunk_size(40, 2) == 3
        cache = ShardCache(tmp_path)
        sharded = shard_map(_draw, tasks, workers=2, cache=cache)
        serial = shard_map(_draw, tasks, workers=1)
        for a, b in zip(serial, sharded):
            assert a.tobytes() == b.tobytes()
        assert (cache.stats.hits, cache.stats.misses) == (20, 40)
        assert cache.stats.stores == 40

    def test_exception_in_the_middle_of_a_chunk_propagates(self):
        # 48 tasks on 2 workers run in chunks of 3: task 4 is the middle
        # one of the chunk [3, 4, 5]
        assert _chunk_size(48, 2) == 3
        with pytest.raises(ValueError, match="boom at 4"):
            shard_map(_explode_on_four, list(range(48)), workers=2)

    def test_in_flight_tasks_stay_within_the_cap(self, tmp_path):
        workers, n_tasks = 2, 64
        chunk = _chunk_size(n_tasks, workers)
        depths = []

        def fold(folded, index):
            # tasks started and not yet folded, this one included
            depths.append(len(os.listdir(tmp_path)) - folded)
            assert index == folded
            return folded + 1

        tasks = [(str(tmp_path), index) for index in range(n_tasks)]
        assert shard_map_fold(_mark_started, tasks, fold, 0, workers=workers) == n_tasks
        # the slow first task lets the others run ahead up to the cap,
        # which counts tasks (2 x workers x chunk), not futures
        assert max(depths) <= 2 * workers * chunk
        assert max(depths) > 2 * workers
