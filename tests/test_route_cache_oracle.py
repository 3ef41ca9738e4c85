"""``simulate_cache`` against its oracle, ``cache_reference.access``.

``simulate_cache`` runs one specialised loop per eviction policy; the
per-packet ``access`` in ``tests/cache_reference.py`` is the reference
semantics.  Every case
feeds the same pre-warmed cache state and the same packet stream to both
and compares everything a caller can observe: the counters, the
per-class dicts in their key order (reports render them), the cached
entries in recency order with their counts, and the global frequency
table.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from cache_reference import access

from repro.router.cache import EvictionPolicy, RouteCache, simulate_cache
from repro.workloads.web import WebTrafficModel, generate_web_packets, interleave_streams

LABELS = ("game", "web", "dns")


def _access_loop(cache, keys, sizes, labels):
    """The oracle: one ``access`` call per packet, as a caller would write it."""
    tags = [None] * len(keys) if labels is None else [str(x) for x in labels]
    for key, size, label in zip(keys, sizes, tags):
        access(cache, int(key), int(size), label)
    return cache.stats


def _observable(cache):
    stats = cache.stats
    return (
        stats.hits,
        stats.misses,
        stats.insertions,
        stats.evictions,
        stats.rejected_insertions,
        list(stats.class_hits.items()),
        list(stats.class_misses.items()),
        list(cache._entries.items()),
        list(cache._frequency.items()),
    )


def _pair(capacity, policy, threshold, warmup):
    caches = []
    for _ in range(2):
        cache = RouteCache(capacity, policy=policy, size_threshold=threshold)
        for key, size, label in warmup:
            access(cache, key, size, label)
        caches.append(cache)
    return caches


def _assert_matches(capacity, policy, threshold, warmup, keys, sizes, labels):
    oracle, fast = _pair(capacity, policy, threshold, warmup)
    _access_loop(oracle, keys, sizes, labels)
    stats = simulate_cache(
        np.asarray(keys, dtype=np.int64),
        np.asarray(sizes, dtype=np.int64),
        fast,
        labels=None if labels is None else np.asarray(labels),
    )
    assert stats is fast.stats
    assert _observable(fast) == _observable(oracle)


THRESHOLD = 100
packets = st.tuples(
    st.integers(min_value=0, max_value=9),
    # sizes straddle the threshold, including sizes equal to it
    st.sampled_from((THRESHOLD - 1, THRESHOLD, THRESHOLD + 1, 1400)),
    st.sampled_from(LABELS),
)


class TestPolicyLoopsMatchAccess:
    @settings(max_examples=300, deadline=None)
    @given(
        policy=st.sampled_from(list(EvictionPolicy)),
        capacity=st.integers(min_value=1, max_value=5),
        warmup=st.lists(packets, max_size=30),
        stream=st.lists(packets, max_size=120),
        labelled=st.booleans(),
    )
    def test_arbitrary_streams(self, policy, capacity, warmup, stream, labelled):
        keys = [p[0] for p in stream]
        sizes = [p[1] for p in stream]
        labels = [p[2] for p in stream] if labelled else None
        warm = [(k, s, label if labelled else None) for k, s, label in warmup]
        _assert_matches(capacity, policy, THRESHOLD, warm, keys, sizes, labels)

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    def test_capacity_one(self, policy):
        keys = [1, 1, 2, 1, 2, 2, 3, 3, 3, 1]
        sizes = [50, 150, 100, 101, 99, 100, 1400, 10, 100, 100]
        labels = ["game", "web"] * 5
        _assert_matches(1, policy, THRESHOLD, [], keys, sizes, labels)

    @pytest.mark.parametrize(
        "policy", [EvictionPolicy.LFU, EvictionPolicy.FREQUENCY_PREFERENTIAL]
    )
    def test_count_ties_evict_in_recency_order(self, policy):
        # every entry reaches count 2 before the misses start, so each
        # eviction picks among ties; the first in recency order must go
        keys = [1, 2, 3, 3, 1, 2, 4, 5, 1, 6, 3, 7, 2, 2, 8]
        sizes = [THRESHOLD] * len(keys)
        _assert_matches(3, policy, THRESHOLD, [], keys, sizes, ["game"] * len(keys))

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    def test_labels_that_never_hit(self, policy):
        # "dns" only ever goes to fresh keys: it has misses and no hit entry
        keys = [1, 2, 1, 500, 2, 501, 1, 502, 2]
        labels = ["game", "game", "game", "dns", "game", "dns", "game", "dns", "game"]
        oracle, fast = _pair(4, policy, THRESHOLD, [])
        _access_loop(oracle, keys, [60] * 9, labels)
        simulate_cache(np.asarray(keys), np.asarray([60] * 9), fast, np.asarray(labels))
        assert "dns" not in fast.stats.class_hits
        assert fast.stats.class_misses["dns"] == 3
        assert _observable(fast) == _observable(oracle)

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    def test_pre_warmed_counters_accumulate(self, policy):
        warmup = [(k % 7, 60 + 300 * (k % 2), LABELS[k % 3]) for k in range(40)]
        keys = [(3 * i) % 11 for i in range(60)]
        sizes = [60 if i % 3 else 1400 for i in range(60)]
        labels = [LABELS[(i // 2) % 3] for i in range(60)]
        _assert_matches(4, policy, THRESHOLD, warmup, keys, sizes, labels)

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    def test_empty_stream(self, policy):
        warmup = [(1, 60, "game"), (2, 60, "web")]
        _assert_matches(2, policy, THRESHOLD, warmup, [], [], [])

    @pytest.mark.parametrize("policy", list(EvictionPolicy))
    def test_router_sized_mixed_stream(self, policy):
        # the caching study's shape: a 64-entry cache under game + Zipf web
        rng = np.random.default_rng(3)
        game_keys = 10_000 + rng.integers(0, 40, size=4000)
        game_sizes = rng.integers(40, 180, size=4000)
        web_keys, web_sizes = generate_web_packets(WebTrafficModel(), 4000, rng)
        keys, sizes, labels = interleave_streams(
            rng, game_keys, game_sizes, web_keys, web_sizes
        )
        oracle, fast = _pair(64, policy, 200, [])
        _access_loop(oracle, keys.tolist(), sizes.tolist(), labels.tolist())
        simulate_cache(keys, sizes, fast, labels=labels)
        assert _observable(fast) == _observable(oracle)
