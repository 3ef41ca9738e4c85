"""Unit tests for the NAT table/device and the route cache."""

import numpy as np
import pytest

from repro.net.addresses import IPv4Address
from repro.router.cache import (
    EvictionPolicy,
    LookupCostModel,
    RouteCache,
    simulate_cache,
)
from repro.router.device import DeviceProfile
from repro.router.nat import NatDevice, NatTable, NatTableFullError
from repro.trace.packet import Direction
from repro.trace.trace import TraceBuilder

PUBLIC = IPv4Address("64.0.0.1")


class TestNatTable:
    def test_binding_created_and_reused(self):
        table = NatTable(PUBLIC)
        first = table.touch(100, 1000, now=0.0)
        second = table.touch(100, 1000, now=1.0)
        assert first is second
        assert table.created_total == 1
        assert second.last_used == 1.0

    def test_distinct_flows_distinct_ports(self):
        table = NatTable(PUBLIC)
        a = table.touch(100, 1000, now=0.0)
        b = table.touch(100, 2000, now=0.0)
        assert a.mapped_port != b.mapped_port

    def test_idle_eviction(self):
        table = NatTable(PUBLIC, capacity=1, idle_timeout=10.0)
        table.touch(100, 1000, now=0.0)
        # after the timeout the stale binding is evicted to admit a new one
        table.touch(200, 2000, now=20.0)
        assert table.expired_total == 1
        assert len(table) == 1

    def test_capacity_enforced(self):
        table = NatTable(PUBLIC, capacity=1, idle_timeout=1000.0)
        table.touch(100, 1000, now=0.0)
        with pytest.raises(NatTableFullError):
            table.touch(200, 2000, now=1.0)

    def test_peak_size_tracked(self):
        table = NatTable(PUBLIC, capacity=10)
        for i in range(5):
            table.touch(i, 1000, now=0.0)
        assert table.peak_size == 5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NatTable(PUBLIC, capacity=0)
        with pytest.raises(ValueError):
            NatTable(PUBLIC, idle_timeout=0.0)


class TestNatDevice:
    def test_counts_consistent(self, quick_trace):
        result = NatDevice(seed=3).run(quick_trace)
        assert result.nat_to_server <= result.clients_to_nat
        assert result.nat_to_clients <= result.server_to_nat
        assert 0.0 <= result.incoming_loss_rate <= 1.0
        assert 0.0 <= result.outgoing_loss_rate <= 1.0

    def test_table_populated(self, quick_trace):
        device = NatDevice(seed=3)
        result = device.run(quick_trace)
        assert result.table_created > 0
        assert result.table_peak >= 1

    def test_custom_device_profile(self, quick_trace):
        slow = NatDevice(device=DeviceProfile(lookup_rate=200.0), seed=3)
        result = slow.run(quick_trace)
        # an 8-slot server still offers ~250+ pps; a 200 pps box must drop
        assert result.incoming_loss_rate > 0.0


class TestRouteCache:
    def test_hit_after_insert(self):
        cache = RouteCache(4)
        assert not cache.access(1)
        assert cache.access(1)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_evicts_oldest(self):
        cache = RouteCache(2, policy=EvictionPolicy.LRU)
        cache.access(1)
        cache.access(2)
        cache.access(1)  # 1 is now most recent
        cache.access(3)  # evicts 2
        assert 1 in cache
        assert 2 not in cache
        assert 3 in cache

    def test_lfu_keeps_frequent(self):
        cache = RouteCache(2, policy=EvictionPolicy.LFU)
        for _ in range(5):
            cache.access(1)
        cache.access(2)
        cache.access(3)  # evicts 2 (frequency 1), keeps 1
        assert 1 in cache
        assert 3 in cache

    def test_size_preferential_rejects_large(self):
        cache = RouteCache(1, policy=EvictionPolicy.SIZE_PREFERENTIAL,
                           size_threshold=100)
        cache.access(1, size=50)
        cache.access(2, size=1400)  # large: may not evict the small entry
        assert 1 in cache
        assert 2 not in cache
        assert cache.stats.rejected_insertions == 1

    def test_size_preferential_small_evicts(self):
        cache = RouteCache(1, policy=EvictionPolicy.SIZE_PREFERENTIAL,
                           size_threshold=100)
        cache.access(1, size=50)
        cache.access(2, size=40)
        assert 2 in cache

    def test_frequency_preferential_guards_hot_entries(self):
        cache = RouteCache(1, policy=EvictionPolicy.FREQUENCY_PREFERENTIAL)
        for _ in range(10):
            cache.access(1)
        cache.access(2)  # frequency 1 < resident entry's count
        assert 1 in cache
        assert 2 not in cache

    def test_capacity_never_exceeded(self):
        cache = RouteCache(8, policy=EvictionPolicy.LRU)
        rng = np.random.default_rng(0)
        for key in rng.integers(0, 100, size=1000):
            cache.access(int(key))
        assert len(cache) <= 8

    def test_per_class_stats(self):
        cache = RouteCache(4)
        cache.access(1, label="game")
        cache.access(1, label="game")
        cache.access(2, label="web")
        assert cache.stats.class_hit_rate("game") == pytest.approx(0.5)
        assert cache.stats.class_hit_rate("web") == 0.0
        assert cache.stats.class_hit_rate("absent") == 0.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RouteCache(0)


class TestSimulateCache:
    def test_stream_processing(self):
        destinations = np.asarray([1, 1, 2, 1, 3, 1])
        sizes = np.full(6, 40)
        stats = simulate_cache(destinations, sizes, RouteCache(2))
        assert stats.accesses == 6
        assert stats.hits == 3  # repeats of key 1 after first access

    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            simulate_cache(
                np.asarray([1, 2]), np.asarray([1, 2]), RouteCache(2),
                labels=np.asarray(["a"]),
            )

    def test_shape_mismatch_checked(self):
        with pytest.raises(ValueError):
            simulate_cache(np.asarray([1]), np.asarray([1, 2]), RouteCache(2))


def _mixed_stream():
    """300 packets: seven in ten to six game routes, the rest to four web ones."""
    i = np.arange(300)
    is_game = i % 10 < 7
    keys = np.where(is_game, 1 + (i * i + i // 7) % 6, 100 + (i // 3) % 4)
    sizes = np.where(is_game, 60, 1200)
    labels = np.where(is_game, "game", "web")
    return keys, sizes, labels


class TestEvictionGolden:
    # (hits, misses, insertions, evictions, rejected), class hits, class
    # misses at capacity 4; the LFU and frequency-preferential rows depend
    # on min() evicting the first of several equal-count entries
    GOLDEN = {
        EvictionPolicy.LRU: (
            (132, 168, 168, 164, 0), {"game": 92, "web": 40}, {"game": 118, "web": 50}
        ),
        EvictionPolicy.LFU: (
            (144, 156, 156, 152, 0), {"game": 91, "web": 53}, {"game": 119, "web": 37}
        ),
        EvictionPolicy.SIZE_PREFERENTIAL: (
            (127, 173, 83, 79, 90), {"game": 127}, {"game": 83, "web": 90}
        ),
        EvictionPolicy.FREQUENCY_PREFERENTIAL: (
            (137, 163, 160, 156, 3), {"game": 88, "web": 49}, {"game": 122, "web": 41}
        ),
    }

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    def test_mixed_stream(self, policy):
        keys, sizes, labels = _mixed_stream()
        stats = simulate_cache(keys, sizes, RouteCache(4, policy=policy), labels=labels)
        counts = (
            stats.hits, stats.misses, stats.insertions, stats.evictions,
            stats.rejected_insertions,
        )
        assert (counts, stats.class_hits, stats.class_misses) == self.GOLDEN[policy]

    def test_lfu_tie_evicts_the_first_equal_count_entry(self):
        cache = RouteCache(3, policy=EvictionPolicy.LFU)
        for key in (1, 2, 3, 1, 2, 3, 2):  # counts 2, 3, 2; order 1, 3, 2
            cache.access(key)
        cache.access(4)  # 1 and 3 tie at the minimum: 1 comes first
        assert 1 not in cache
        assert all(key in cache for key in (2, 3, 4))


class TestLookupCostModel:
    def test_all_hits_fastest(self):
        model = LookupCostModel()
        assert model.effective_rate(1.0) > model.effective_rate(0.0)

    def test_speedup_math(self):
        model = LookupCostModel(hit_cost=0.0001, miss_cost=0.001)
        assert model.speedup(1.0, 0.0) == pytest.approx(10.0)

    def test_invalid_hit_rate(self):
        with pytest.raises(ValueError):
            LookupCostModel().effective_rate(1.5)
