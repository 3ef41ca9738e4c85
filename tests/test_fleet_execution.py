"""Determinism and sharding tests for the fleet execution layer.

The contract under test: the same fleet seed yields bit-identical
facility aggregates for 1, 2, and 4 workers — the whole point of
index-derived seeds plus index-ordered folding.
"""

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
