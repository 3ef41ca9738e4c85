"""Test oracle: the route cache, one lookup at a time.

:func:`repro.router.cache.simulate_cache` replays a whole packet stream
through one specialised loop per eviction policy.  :func:`access` is the
per-packet semantics those loops must reproduce: it updates a
:class:`~repro.router.cache.RouteCache`'s entries, global frequency
table and stats exactly as one lookup does.  It only needs to be
obviously correct, not fast.

``tests/`` is not a package: test modules import this file by name (the
test directory is on ``sys.path`` under pytest).
"""

from __future__ import annotations

from typing import Optional

from repro.router.cache import CacheStats, EvictionPolicy, RouteCache


def access(cache: RouteCache, key: int, size: int = 0, label: Optional[str] = None) -> bool:
    """Process one packet's route lookup; returns True on cache hit."""
    cache._frequency[key] = cache._frequency.get(key, 0) + 1
    entries = cache._entries
    if key in entries:
        entries[key] += 1
        entries.move_to_end(key)
        _record(cache.stats, True, label)
        return True
    _record(cache.stats, False, label)
    _maybe_insert(cache, key, size)
    return False


def _record(stats: CacheStats, hit: bool, label: Optional[str]) -> None:
    if hit:
        stats.hits += 1
        if label is not None:
            stats.class_hits[label] = stats.class_hits.get(label, 0) + 1
    else:
        stats.misses += 1
        if label is not None:
            stats.class_misses[label] = stats.class_misses.get(label, 0) + 1


def _maybe_insert(cache: RouteCache, key: int, size: int) -> None:
    entries, stats = cache._entries, cache.stats
    if len(entries) < cache.capacity:
        entries[key] = 1
        stats.insertions += 1
        return
    policy = cache.policy
    if policy is EvictionPolicy.LRU:
        entries.popitem(last=False)
    elif policy is EvictionPolicy.LFU:
        del entries[min(entries, key=entries.__getitem__)]
    elif policy is EvictionPolicy.SIZE_PREFERENTIAL:
        if size > cache.size_threshold:
            stats.rejected_insertions += 1
            return
        entries.popitem(last=False)
    elif policy is EvictionPolicy.FREQUENCY_PREFERENTIAL:
        victim = min(entries, key=entries.__getitem__)
        if cache._frequency[key] < entries[victim]:
            stats.rejected_insertions += 1
            return
        del entries[victim]
    else:
        raise ValueError(f"unknown policy {policy!r}")
    stats.evictions += 1
    entries[key] = 1
    stats.insertions += 1
