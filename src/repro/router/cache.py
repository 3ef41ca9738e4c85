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

:func:`simulate_cache` replays a whole stream through one loop per
policy.  Each loop leaves the cache exactly as the per-packet reference
in ``tests/cache_reference.py`` would, one lookup at a time
(``tests/test_route_cache_oracle.py`` checks it).  The LFU
victim search is the O(1) count-bucket scheme of Shah, Mitra & Matani,
"An O(1) algorithm for implementing the LFU cache eviction scheme"
(2010): entries sit in one bucket per access count, each bucket in
recency order, so the first entry of the lowest bucket is the entry
``min`` would pick — the first minimum in recency order.
"""

from __future__ import annotations

import enum
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Tuple, Union

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


@dataclass(frozen=True)
class ClassLabels:
    """Per-packet traffic-class labels, encoded once for many replays.

    ``codes[i]`` indexes ``names`` for packet ``i``.  Encoding a label
    column sorts its strings, which costs more than tallying one replay,
    so a sweep that replays one stream under several policies encodes
    it once and passes the result to every :func:`simulate_cache` call.
    """

    names: Tuple[str, ...]
    codes: np.ndarray

    @classmethod
    def encode(cls, labels: np.ndarray) -> "ClassLabels":
        """Encode a column of label strings (anything ``str`` accepts)."""
        tags = np.asarray(labels)
        if tags.dtype.kind != "U":
            tags = np.array([str(tag) for tag in tags.tolist()])
        names, codes = np.unique(tags, return_inverse=True)
        return cls(tuple(names.tolist()), codes)

    def __len__(self) -> int:
        return int(self.codes.size)


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

    # ------------------------------------------------------------------


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


def simulate_cache(
    destinations: np.ndarray,
    sizes: np.ndarray,
    cache: RouteCache,
    labels: Union[np.ndarray, ClassLabels, None] = None,
) -> CacheStats:
    """Run a packet stream (dest key + size arrays) through a route cache.

    ``labels`` optionally tags each packet with a traffic-class name for
    per-class hit accounting, as a column of names or as
    :class:`ClassLabels` encoded once for several replays of a stream.

    Equivalent to one lookup per packet in stream order (the reference
    is ``tests/cache_reference.py``), but the stream runs through one
    loop per policy over plain Python columns: LRU and
    size-preferential never read the global
    frequency table, so it is filled in bulk afterwards; LFU and
    frequency-preferential find their victim in O(1) from count buckets;
    the loop only records a hit flag per packet, and the counters and
    per-class tallies are added to ``cache.stats`` once at the end.
    """
    destinations = np.asarray(destinations)
    sizes = np.asarray(sizes)
    if destinations.shape != sizes.shape:
        raise ValueError("destinations and sizes must have matching shapes")
    if labels is not None and len(labels) != destinations.size:
        raise ValueError("labels must match the packet count")
    keys = _python_ints(destinations)
    policy = cache.policy
    if policy is EvictionPolicy.LRU:
        hit = _lru_loop(cache, keys)
    elif policy is EvictionPolicy.SIZE_PREFERENTIAL:
        hit = _lru_loop(cache, keys, _python_ints(sizes))
    elif policy is EvictionPolicy.LFU:
        hit = _lfu_loop(cache, keys, preferential=False)
    elif policy is EvictionPolicy.FREQUENCY_PREFERENTIAL:
        hit = _lfu_loop(cache, keys, preferential=True)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown policy {policy!r}")
    if policy is not EvictionPolicy.FREQUENCY_PREFERENTIAL:
        frequency = cache._frequency
        for key, count in Counter(keys).items():
            frequency[key] = frequency.get(key, 0) + count
    stats = cache.stats
    hits = hit.count(1)
    stats.hits += hits
    stats.misses += len(keys) - hits
    if labels is not None and keys:
        _tally_classes(stats, np.frombuffer(hit, dtype=bool), labels)
    return stats


def _python_ints(values: np.ndarray) -> List[int]:
    """A column as Python ints (numpy scalars cost more than the lookup)."""
    column = values.tolist()
    return column if values.dtype.kind in "iu" else [int(v) for v in column]


# The loops below run on a plain dict copy of ``cache._entries``: popping
# a key and setting it again moves it to the end, which costs less than
# ``OrderedDict.move_to_end``.  The copy goes back into the cache at the
# end, in the same recency order.


def _lru_loop(
    cache: RouteCache, keys: List[int], sizes: Optional[List[int]] = None
) -> bytearray:
    """LRU, or size-preferential when ``sizes`` is given.

    Size-preferential is LRU in which a packet above the size threshold
    may fill spare capacity but never evicts.
    """
    entries = dict(cache._entries)
    take = entries.pop
    capacity = cache.capacity
    threshold = float("inf") if sizes is None else cache.size_threshold
    hit = bytearray()
    mark = hit.append
    insertions = evictions = rejected = 0
    for key, size in zip(keys, repeat(0) if sizes is None else sizes):
        count = take(key, 0)
        if count:
            entries[key] = count + 1
            mark(1)
            continue
        mark(0)
        if len(entries) >= capacity:
            if size > threshold:
                rejected += 1
                continue
            del entries[next(iter(entries))]
            evictions += 1
        entries[key] = 1
        insertions += 1
    cache._entries = OrderedDict(entries)
    cache.stats.insertions += insertions
    cache.stats.evictions += evictions
    cache.stats.rejected_insertions += rejected
    return hit


def _lfu_loop(cache: RouteCache, keys: List[int], preferential: bool) -> bytearray:
    """LFU, or frequency-preferential when ``preferential``, over count buckets.

    ``buckets[c]`` holds the cached keys with entry count ``c`` in
    recency order: a key enters a bucket only when it is inserted or hit,
    which is also when it moves to the end of ``entries``.
    """
    entries = dict(cache._entries)
    take = entries.pop
    capacity = cache.capacity
    frequency = cache._frequency
    buckets: Dict[int, Dict[int, None]] = {}
    for key, count in entries.items():
        buckets.setdefault(count, {})[key] = None
    lowest = min(buckets, default=1)
    hit = bytearray()
    mark = hit.append
    insertions = evictions = rejected = 0
    seen = 0
    for key in keys:
        if preferential:
            seen = frequency.get(key, 0) + 1
            frequency[key] = seen
        count = take(key, 0)
        if count:
            up = count + 1
            entries[key] = up
            mark(1)
            bucket = buckets[count]
            if len(bucket) == 1 and up not in buckets:
                # the key is its bucket's only member: move the bucket up
                buckets[up] = buckets.pop(count)
            else:
                del bucket[key]
                if not bucket:
                    del buckets[count]
                upper = buckets.get(up)
                if upper is None:
                    buckets[up] = {key: None}
                else:
                    upper[key] = None
            if count == lowest and count not in buckets:
                lowest = up
            continue
        mark(0)
        if len(entries) >= capacity:
            if preferential and seen < lowest:
                rejected += 1
                continue
            bucket = buckets[lowest]
            victim = next(iter(bucket))
            del bucket[victim]
            if not bucket:
                del buckets[lowest]
            del entries[victim]
            evictions += 1
        entries[key] = 1
        insertions += 1
        ones = buckets.get(1)
        if ones is None:
            buckets[1] = {key: None}
        else:
            ones[key] = None
        lowest = 1
    cache._entries = OrderedDict(entries)
    cache.stats.insertions += insertions
    cache.stats.evictions += evictions
    cache.stats.rejected_insertions += rejected
    return hit


def _tally_classes(
    stats: CacheStats, hit: np.ndarray, labels: Union[np.ndarray, ClassLabels]
) -> None:
    """Add per-class hits and misses, each dict's new keys in first-seen order."""
    if not isinstance(labels, ClassLabels):
        labels = ClassLabels.encode(labels)
    names, codes = labels.names, labels.codes
    for tally, mask in ((stats.class_hits, hit), (stats.class_misses, ~hit)):
        chosen = codes[mask]
        counts = np.bincount(chosen, minlength=len(names))
        first = np.full(len(names), chosen.size)
        np.minimum.at(first, chosen, np.arange(chosen.size))
        present = np.flatnonzero(counts)
        for code in present[np.argsort(first[present])].tolist():
            name = names[code]
            tally[name] = tally.get(name, 0) + int(counts[code])
