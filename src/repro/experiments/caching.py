"""Experiment X1 — §IV-B future work: preferential route caching.

"The periodicity and predictability of packet sizes allows for
meaningful performance optimizations within routers.  For example,
preferential route caching strategies based on packet size or packet
frequency may provide significant improvements in packet throughput."

Setup: a router fast path carries the game server's aggregate plus a
Zipf-destination web aggregate.  We sweep cache policies at a small
cache size and measure game-class hit rate and the implied lookup
throughput.  Expected shape: preferential policies keep the (small,
frequent) game routes resident, beating plain LRU on game hit rate and
overall throughput.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.report import ComparisonRow
from repro.experiments.base import ExperimentOutput, RunConfig
from repro.router.cache import (
    CacheStats,
    ClassLabels,
    EvictionPolicy,
    LookupCostModel,
    RouteCache,
    simulate_cache,
)
from repro.workloads.scenarios import olygamer_scenario
from repro.workloads.web import WebTrafficModel, generate_web_packets, interleave_streams

EXPERIMENT_ID = "caching"
TITLE = "Preferential route caching ablation (§IV-B future work)"
CACHE_CAPACITY = 64
GAME_WINDOW = (3600.0, 4500.0)
WEB_PACKET_RATIO = 1.0


def run(seed: int = 0, config: RunConfig = RunConfig()) -> ExperimentOutput:
    """Sweep cache policies over a mixed game+web packet stream."""
    scenario = olygamer_scenario(seed)
    trace = scenario.packet_window(*GAME_WINDOW)
    # route key: destination address (clients for OUT, server for IN)
    game_keys = trace.dst_addrs.astype(np.int64)
    game_sizes = trace.payload_sizes.astype(np.int64)

    rng = np.random.default_rng(seed + 7)
    web_count = int(game_keys.size * WEB_PACKET_RATIO)
    web_keys, web_sizes = generate_web_packets(WebTrafficModel(), web_count, rng)
    keys, sizes, labels = interleave_streams(
        rng, game_keys, game_sizes, web_keys, web_sizes
    )

    cost_model = LookupCostModel()
    classes = ClassLabels.encode(labels)
    results: Dict[EvictionPolicy, CacheStats] = {}
    for policy in EvictionPolicy:
        cache = RouteCache(CACHE_CAPACITY, policy=policy)
        results[policy] = simulate_cache(keys, sizes, cache, labels=classes)

    lru = results[EvictionPolicy.LRU]
    size_pref = results[EvictionPolicy.SIZE_PREFERENTIAL]
    freq_pref = results[EvictionPolicy.FREQUENCY_PREFERENTIAL]

    rows = [
        ComparisonRow("size-preferential game hit rate beats LRU", 1.0,
                      float(size_pref.class_hit_rate("game")
                            > lru.class_hit_rate("game"))),
        ComparisonRow("frequency-preferential game hit rate beats LRU", 1.0,
                      float(freq_pref.class_hit_rate("game")
                            > lru.class_hit_rate("game"))),
        ComparisonRow("game traffic is highly cacheable (hit rate)", 0.95,
                      size_pref.class_hit_rate("game"), tolerance_factor=1.2),
        ComparisonRow("throughput speedup vs LRU (size-preferential)", 1.2,
                      cost_model.effective_rate(size_pref.hit_rate)
                      / cost_model.effective_rate(lru.hit_rate),
                      tolerance_factor=2.5),
    ]
    summary = {
        policy.value: {
            "hit_rate": stats.hit_rate,
            "game_hit_rate": stats.class_hit_rate("game"),
            "web_hit_rate": stats.class_hit_rate("web"),
            "effective_pps": cost_model.effective_rate(stats.hit_rate),
        }
        for policy, stats in results.items()
    }
    return ExperimentOutput(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        notes=[
            f"cache of {CACHE_CAPACITY} entries, {keys.size} packets "
            f"({game_keys.size} game / {web_count} web)",
            *(
                f"{name}: overall {stats['hit_rate']:.3f}, game "
                f"{stats['game_hit_rate']:.3f}, web {stats['web_hit_rate']:.3f}, "
                f"{stats['effective_pps']:.0f} pps"
                for name, stats in summary.items()
            ),
        ],
        extras={"summary": summary},
    )
