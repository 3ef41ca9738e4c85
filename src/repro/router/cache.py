"""Route-cache simulation — the paper's §IV-B future work.

"The periodicity and predictability of packet sizes allows for meaningful
performance optimizations within routers.  For example, preferential
route caching strategies based on packet size or packet frequency may
provide significant improvements in packet throughput."

This module implements that study: a route cache in a router's fast path
keyed by destination address, with classic (LRU, LFU) and preferential
(size-based, frequency-based) replacement policies, evaluated on mixed
game + web workloads.  Game traffic is many tiny packets to a small,
stable set of destinations; web traffic is fewer, larger packets across
a Zipf-heavy destination population — the mix where preferential
policies pay off.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Optional

import numpy as np


class EvictionPolicy(enum.Enum):
    """Route-cache replacement policies."""

    LRU = "lru"
    LFU = "lfu"
    #: Prefer caching routes carried by small packets (game traffic):
    #: large-packet flows may only fill spare capacity, never evict.
    SIZE_PREFERENTIAL = "size-preferential"
    #: Prefer caching high-frequency destinations: an entry may only be
    #: evicted by a destination observed at least as often.
    FREQUENCY_PREFERENTIAL = "frequency-preferential"


@dataclass
class CacheStats:
    """Hit/miss accounting, overall and per traffic class."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected_insertions: int = 0
    class_hits: Dict[str, int] = field(default_factory=dict)
    class_misses: Dict[str, int] = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Overall hit fraction."""
        return self.hits / self.accesses if self.accesses else 0.0

    def class_hit_rate(self, label: str) -> float:
        """Hit fraction of one traffic class."""
        hits = self.class_hits.get(label, 0)
        misses = self.class_misses.get(label, 0)
        total = hits + misses
        return hits / total if total else 0.0

    def record(self, hit: bool, label: Optional[str]) -> None:
        """Account one access."""
        if hit:
            self.hits += 1
            if label is not None:
                self.class_hits[label] = self.class_hits.get(label, 0) + 1
        else:
            self.misses += 1
            if label is not None:
                self.class_misses[label] = self.class_misses.get(label, 0) + 1


class RouteCache:
    """A destination-keyed route cache with pluggable replacement.

    Parameters
    ----------
    capacity:
        Number of route entries the fast path can hold.
    policy:
        An :class:`EvictionPolicy`.
    size_threshold:
        Bytes at or below which a packet counts as "small" for
        :attr:`EvictionPolicy.SIZE_PREFERENTIAL`.
    """

    def __init__(
        self,
        capacity: int,
        policy: EvictionPolicy = EvictionPolicy.LRU,
        size_threshold: int = 200,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        self.capacity = capacity
        self.policy = policy
        self.size_threshold = size_threshold
        self.stats = CacheStats()
        self._entries: "OrderedDict[int, int]" = OrderedDict()  # key -> frequency
        self._frequency: Dict[int, int] = {}  # global observed frequency

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    # ------------------------------------------------------------------
    def access(self, key: int, size: int = 0, label: Optional[str] = None) -> bool:
        """Process one packet's route lookup; returns True on cache hit."""
        frequency = self._frequency
        frequency[key] = frequency.get(key, 0) + 1
        entries = self._entries
        if key in entries:
            entries[key] += 1
            entries.move_to_end(key)
            self.stats.record(True, label)
            return True
        self.stats.record(False, label)
        self._maybe_insert(key, size)
        return False

    # ------------------------------------------------------------------
    def _maybe_insert(self, key: int, size: int) -> None:
        if len(self._entries) < self.capacity:
            self._entries[key] = 1
            self.stats.insertions += 1
            return
        policy = self.policy
        if policy is EvictionPolicy.LRU:
            self._evict_lru()
        elif policy is EvictionPolicy.LFU:
            self._evict_lfu()
        elif policy is EvictionPolicy.SIZE_PREFERENTIAL:
            if size > self.size_threshold:
                self.stats.rejected_insertions += 1
                return
            self._evict_lru()
        elif policy is EvictionPolicy.FREQUENCY_PREFERENTIAL:
            victim = min(self._entries, key=self._entries.__getitem__)
            if self._frequency[key] < self._entries[victim]:
                self.stats.rejected_insertions += 1
                return
            del self._entries[victim]
            self.stats.evictions += 1
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown policy {policy!r}")
        self._entries[key] = 1
        self.stats.insertions += 1

    def _evict_lru(self) -> None:
        self._entries.popitem(last=False)
        self.stats.evictions += 1

    def _evict_lfu(self) -> None:
        victim = min(self._entries, key=self._entries.__getitem__)
        del self._entries[victim]
        self.stats.evictions += 1


@dataclass(frozen=True)
class LookupCostModel:
    """Converts hit rates into effective lookup throughput.

    A hit costs ``hit_cost`` seconds of engine time, a miss
    ``miss_cost`` (full trie/longest-prefix walk).  The paper argues the
    lookup function — not link speed — becomes the bottleneck for small
    packets, so throughput here is purely lookup-bound.
    """

    hit_cost: float = 1.0 / 10000.0
    miss_cost: float = 1.0 / 1000.0

    def effective_rate(self, hit_rate: float) -> float:
        """Sustainable packets/second at the given hit rate."""
        if not 0.0 <= hit_rate <= 1.0:
            raise ValueError(f"hit_rate must lie in [0, 1]: {hit_rate!r}")
        mean_cost = hit_rate * self.hit_cost + (1.0 - hit_rate) * self.miss_cost
        return 1.0 / mean_cost

    def speedup(self, hit_rate: float, baseline_hit_rate: float = 0.0) -> float:
        """Throughput ratio versus a baseline hit rate."""
        return self.effective_rate(hit_rate) / self.effective_rate(baseline_hit_rate)


def simulate_cache(
    destinations: np.ndarray,
    sizes: np.ndarray,
    cache: RouteCache,
    labels: Optional[np.ndarray] = None,
) -> CacheStats:
    """Run a packet stream (dest key + size arrays) through a route cache.

    ``labels`` optionally tags each packet with a traffic-class name for
    per-class hit accounting.
    """
    destinations = np.asarray(destinations)
    sizes = np.asarray(sizes)
    if destinations.shape != sizes.shape:
        raise ValueError("destinations and sizes must have matching shapes")
    if labels is not None and len(labels) != destinations.size:
        raise ValueError("labels must match the packet count")
    # plain Python columns: indexing numpy scalars per packet costs more
    # than the lookup itself
    keys = map(int, destinations.tolist())
    lengths = map(int, sizes.tolist())
    tags = repeat(None) if labels is None else map(str, np.asarray(labels).tolist())
    access = cache.access
    for key, size, label in zip(keys, lengths, tags):
        access(key, size, label)
    return cache.stats
