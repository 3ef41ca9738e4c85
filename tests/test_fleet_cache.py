"""Tests for the content-addressed shard cache and its execution wiring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.experiments.base import RunConfig
from repro.fleet.cache import ShardCache, UnfingerprintableTask, _canonical
from repro.fleet.execution import shard_map, shard_map_fold


@dataclass(frozen=True)
class SquareTask:
    """A tiny pure task: deterministic result from its fields alone."""

    base: float
    exponent: int = 2


def evaluate_square(task: SquareTask) -> float:
    return float(task.base**task.exponent)


@dataclass(frozen=True)
class ArrayTask:
    scale: float
    seed: int


def evaluate_array(task: ArrayTask) -> np.ndarray:
    rng = np.random.default_rng(task.seed)
    return task.scale * rng.uniform(0.0, 1.0, 64)


@dataclass(frozen=True)
class LabelTask:
    labels: np.ndarray


def evaluate_labels(task: LabelTask) -> str:
    return str(task.labels[0])


class TestFingerprinting:
    def test_key_is_deterministic(self, tmp_path):
        cache = ShardCache(tmp_path)
        a = cache.task_key(evaluate_square, SquareTask(2.0))
        b = cache.task_key(evaluate_square, SquareTask(2.0))
        assert a == b
        assert isinstance(a, str) and len(a) == 64

    def test_key_covers_every_field(self, tmp_path):
        cache = ShardCache(tmp_path)
        base = cache.task_key(evaluate_square, SquareTask(2.0, exponent=2))
        assert base != cache.task_key(evaluate_square, SquareTask(3.0, exponent=2))
        assert base != cache.task_key(evaluate_square, SquareTask(2.0, exponent=3))

    def test_key_covers_worker_function(self, tmp_path):
        cache = ShardCache(tmp_path)
        assert cache.task_key(evaluate_square, SquareTask(2.0)) != cache.task_key(
            evaluate_array, SquareTask(2.0)
        )

    def test_key_covers_kernel_version(self, tmp_path, monkeypatch):
        cache = ShardCache(tmp_path)
        before = cache.task_key(evaluate_square, SquareTask(2.0))
        monkeypatch.setattr("repro.fleet.cache.KERNEL_VERSION", "kernels-next")
        assert cache.task_key(evaluate_square, SquareTask(2.0)) != before

    def test_non_dataclass_tasks_are_uncacheable(self, tmp_path):
        cache = ShardCache(tmp_path)
        assert cache.task_key(evaluate_square, 17) is None
        assert cache.task_key(evaluate_square, (1, 2)) is None

    def test_canonical_rejects_identity_reprs(self):
        class Opaque:
            pass

        with pytest.raises(UnfingerprintableTask):
            _canonical(Opaque())

    def test_object_arrays_are_uncacheable(self, tmp_path):
        # equal strings built at run time are distinct objects, so an
        # object array's bytes (element addresses) differ between them
        parts = ["mo", "dem"]
        a = np.array(["".join(parts)], dtype=object)
        b = np.array(["".join(parts)], dtype=object)
        assert a[0] == b[0] and a[0] is not b[0]
        for value in (a, np.array([(1, "x")], dtype=[("n", int), ("s", object)])):
            with pytest.raises(UnfingerprintableTask):
                _canonical(value)
        cache = ShardCache(tmp_path)
        assert cache.task_key(evaluate_labels, LabelTask(a)) is None
        result = shard_map(
            evaluate_labels, [LabelTask(a), LabelTask(b)], workers=1, cache=cache
        )
        assert result == ["modem", "modem"]
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (0, 0, 0)

    def test_canonical_handles_real_window_tasks(self, quick_profile):
        from repro.fleet.execution import WindowTask, simulate_window

        task = WindowTask(profile=quick_profile, seed=7, start=0.0, end=30.0)
        text = _canonical(task)
        assert "WindowTask" in text and "seed=7" in text
        cache = ShardCache.__new__(ShardCache)  # key only, no disk
        assert (
            ShardCache.task_key(cache, simulate_window, task)
            == ShardCache.task_key(cache, simulate_window, task)
        )

    def test_canonical_floats_are_exact(self):
        tiny = 0.1 + 0.2  # != 0.3 in float64
        assert _canonical(tiny) != _canonical(0.3)

    def test_canonical_sets_are_order_stable(self):
        # set iteration order depends on the hash seed; the canonical
        # form must not
        assert _canonical({"b", "a", "c"}) == _canonical({"c", "a", "b"})
        assert _canonical(frozenset({2, 1})) == _canonical(frozenset({1, 2}))
        assert _canonical({"a"}) != _canonical(frozenset({"a"}))

    def test_key_covers_package_version(self, tmp_path, monkeypatch):
        cache = ShardCache(tmp_path)
        before = cache.task_key(evaluate_square, SquareTask(2.0))
        monkeypatch.setattr("repro.__version__", "999.0.0")
        assert cache.task_key(evaluate_square, SquareTask(2.0)) != before


class TestShardCacheTraffic:
    def test_miss_then_store_then_hit(self, tmp_path):
        cache = ShardCache(tmp_path)
        key = cache.task_key(evaluate_square, SquareTask(4.0))
        hit, value = cache.fetch(key)
        assert not hit and value is None
        cache.store(key, 16.0)
        hit, value = cache.fetch(key)
        assert hit and value == 16.0
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_array_values_roundtrip_bit_identical(self, tmp_path):
        cache = ShardCache(tmp_path)
        task = ArrayTask(scale=3.7, seed=5)
        key = cache.task_key(evaluate_array, task)
        original = evaluate_array(task)
        cache.store(key, original)
        hit, loaded = cache.fetch(key)
        assert hit
        np.testing.assert_array_equal(loaded, original)

    def test_corrupt_entry_is_a_miss_and_deleted(self, tmp_path):
        cache = ShardCache(tmp_path)
        key = cache.task_key(evaluate_square, SquareTask(9.0))
        cache.store(key, 81.0)
        path = cache.entry_path(key)
        path.write_bytes(b"not a pickle \x00\x01")
        hit, value = cache.fetch(key)
        assert not hit
        assert not path.exists()
        assert cache.stats.invalid == 1
        assert cache.stats.misses == 1
        # the recomputed result can be stored and served again
        cache.store(key, 81.0)
        hit, value = cache.fetch(key)
        assert hit and value == 81.0

    def test_truncated_entry_is_a_miss(self, tmp_path):
        import pickle

        cache = ShardCache(tmp_path)
        key = cache.task_key(evaluate_array, ArrayTask(1.0, 1))
        cache.store(key, evaluate_array(ArrayTask(1.0, 1)))
        path = cache.entry_path(key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        hit, _ = cache.fetch(key)
        assert not hit
        assert cache.stats.invalid == 1
        # sanity: an intact store would have unpickled
        assert pickle.loads(blob) is not None

    def test_default_cache_plumbing(self, tmp_path):
        # the default RunConfig has no cache, and cache=None computes
        # every task; a cache reaches shard_map only when passed
        cache = ShardCache(tmp_path)
        tasks = [SquareTask(float(i)) for i in range(3)]
        assert RunConfig().cache is None
        shard_map(evaluate_square, tasks, workers=1, cache=RunConfig().cache)
        assert cache.stats.misses == 0 and not any(tmp_path.iterdir())
        config = RunConfig(cache=cache)
        shard_map(evaluate_square, tasks, workers=1, cache=config.cache)
        assert cache.stats.stores == 3


class TestShardMapFoldCaching:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_cold_then_warm_identical(self, tmp_path, workers):
        cache = ShardCache(tmp_path)
        tasks = [SquareTask(float(i)) for i in range(10)]
        cold = shard_map(evaluate_square, tasks, workers=workers, cache=cache)
        assert cache.stats.misses == 10
        assert cache.stats.stores == 10
        assert cache.stats.hits == 0
        warm = shard_map(evaluate_square, tasks, workers=workers, cache=cache)
        assert warm == cold == [float(i) ** 2 for i in range(10)]
        assert cache.stats.hits == 10
        assert cache.stats.misses == 10  # unchanged

    def test_serial_and_parallel_share_entries(self, tmp_path):
        cache = ShardCache(tmp_path)
        tasks = [ArrayTask(scale=1.5, seed=i) for i in range(6)]
        cold = shard_map(evaluate_array, tasks, workers=3, cache=cache)
        warm = shard_map(evaluate_array, tasks, workers=1, cache=cache)
        for a, b in zip(cold, warm):
            np.testing.assert_array_equal(a, b)
        assert cache.stats.hits == 6

    def test_partial_warm_mixes_hits_and_computes(self, tmp_path):
        cache = ShardCache(tmp_path)
        first = [SquareTask(float(i)) for i in range(4)]
        shard_map(evaluate_square, first, workers=1, cache=cache)
        extended = [SquareTask(float(i)) for i in range(8)]
        result = shard_map(evaluate_square, extended, workers=2, cache=cache)
        assert result == [float(i) ** 2 for i in range(8)]
        assert cache.stats.hits == 4
        assert cache.stats.stores == 8

    def test_fold_order_matches_serial_with_cache(self, tmp_path):
        cache = ShardCache(tmp_path)
        tasks = [SquareTask(float(i)) for i in range(12)]
        seen = []
        shard_map_fold(
            evaluate_square,
            tasks,
            lambda acc, value: (seen.append(value) or acc),
            None,
            workers=4,
            cache=cache,
        )
        assert seen == [float(i) ** 2 for i in range(12)]
        seen.clear()
        shard_map_fold(
            evaluate_square,
            tasks,
            lambda acc, value: (seen.append(value) or acc),
            None,
            workers=4,
            cache=cache,
        )
        assert seen == [float(i) ** 2 for i in range(12)]

    def test_uncacheable_tasks_compute_without_storing(self, tmp_path):
        cache = ShardCache(tmp_path)
        result = shard_map(lambda x: x * 2, [1, 2, 3], workers=1, cache=cache)
        assert result == [2, 4, 6]
        assert cache.stats.stores == 0
        assert cache.stats.hits == 0
        assert cache.stats.misses == 0

    def test_corrupt_entry_recomputed_in_parallel_path(self, tmp_path):
        cache = ShardCache(tmp_path)
        tasks = [SquareTask(float(i)) for i in range(5)]
        shard_map(evaluate_square, tasks, workers=1, cache=cache)
        key = cache.task_key(evaluate_square, tasks[2])
        cache.entry_path(key).write_bytes(b"garbage")
        result = shard_map(evaluate_square, tasks, workers=2, cache=cache)
        assert result == [float(i) ** 2 for i in range(5)]
        assert cache.stats.invalid == 1
        # the repaired entry serves the next run
        hit, value = cache.fetch(key)
        assert hit and value == 4.0


class TestFacilityIntegration:
    def test_rack_ingress_replays_from_cache_bit_identically(self, tmp_path):
        from repro.facilitynet.pipeline import rack_ingress_traces
        from repro.facilitynet.topology import build_topology
        from repro.fleet.profiles import hosting_facility

        fleet = hosting_facility(n_servers=2, duration=90.0, seed=5)
        shape = build_topology(2, 2, per_server_pps=1.0, per_server_bps=1.0)
        cache = ShardCache(tmp_path)
        cold = rack_ingress_traces(fleet, shape, 0.0, 30.0, workers=1, cache=cache)
        assert cache.stats.stores == 2
        assert cache.stats.hits == 0
        warm = rack_ingress_traces(fleet, shape, 0.0, 30.0, workers=1, cache=cache)
        assert cache.stats.hits == 2
        for a, b in zip(cold, warm):
            np.testing.assert_array_equal(a.timestamps, b.timestamps)
            np.testing.assert_array_equal(a.payload_sizes, b.payload_sizes)
            np.testing.assert_array_equal(a.src_addrs, b.src_addrs)

    def test_fleet_scenario_honours_explicit_cache(self, tmp_path):
        from repro.fleet.profiles import hosting_facility
        from repro.fleet.scenario import FleetScenario

        fleet = hosting_facility(n_servers=2, duration=90.0, seed=9)
        cache = ShardCache(tmp_path)
        first = FleetScenario(fleet, cache=cache).aggregate_packet_window(
            0.0, 30.0, workers=1
        )
        assert cache.stats.stores == 2
        second = FleetScenario(fleet, cache=cache).aggregate_packet_window(
            0.0, 30.0, workers=1
        )
        assert cache.stats.hits == 2
        np.testing.assert_array_equal(first.timestamps, second.timestamps)


class TestCacheStatsAccounting:
    """Per-run scoping and process-wide mirroring of cache counters."""

    def test_snapshot_is_a_plain_dict(self, tmp_path):
        from repro.fleet.cache import ShardCache

        cache = ShardCache(tmp_path)
        cache.stats.hits += 2
        cache.stats.misses += 1
        assert cache.stats.snapshot() == {
            "hits": 2,
            "misses": 1,
            "stores": 0,
            "invalid": 0,
        }

    def test_reset_scopes_stats_per_run(self, tmp_path):
        # the bug this pins: a long-lived cache used to accumulate
        # counters forever, so the second run's stats_line lied
        from repro.fleet.cache import ShardCache
        from repro.fleet.execution import shard_map

        cache = ShardCache(tmp_path)
        tasks = [SquareTask(float(i)) for i in range(3)]
        shard_map(evaluate_square, tasks, workers=1, cache=cache)  # cold
        assert cache.stats.snapshot()["misses"] == 3

        cache.reset_stats()
        assert cache.stats.snapshot() == {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "invalid": 0,
        }

        shard_map(evaluate_square, tasks, workers=1, cache=cache)  # warm
        assert cache.stats.snapshot() == {
            "hits": 3,
            "misses": 0,
            "stores": 0,
            "invalid": 0,
        }

    def test_negative_adjustment_rejected(self, tmp_path):
        from repro.fleet.cache import ShardCache

        cache = ShardCache(tmp_path)
        cache.stats.hits += 2
        with pytest.raises(ValueError):
            cache.stats.hits -= 1

    def test_increments_mirror_into_process_registry(self, tmp_path):
        from repro.fleet.cache import ShardCache
        from repro.obs.metrics import registry, reset_metrics

        reset_metrics()
        cache_a = ShardCache(tmp_path / "a")
        cache_b = ShardCache(tmp_path / "b")
        cache_a.stats.hits += 2
        cache_b.stats.hits += 3
        # per-cache scoping stays separate ...
        assert cache_a.stats.hits == 2
        assert cache_b.stats.hits == 3
        # ... while the process registry aggregates across caches
        assert registry().counter("shard_cache.hits").value == 5
        # per-cache reset never rolls back the process-wide totals
        cache_a.reset_stats()
        assert registry().counter("shard_cache.hits").value == 5

    def test_stats_line_reflects_current_window_only(self, tmp_path):
        from repro.fleet.cache import ShardCache

        cache = ShardCache(tmp_path)
        cache.stats.misses += 3
        cache.stats.stores += 3
        assert "0 hits, 3 misses, 3 stored" in cache.stats_line()
        cache.reset_stats()
        cache.stats.hits += 3
        assert "3 hits, 0 misses, 0 stored" in cache.stats_line()
