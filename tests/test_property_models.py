"""Property-based tests on the traffic and device models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gameserver.admission import SlotTable
from repro.gameserver.downloads import TokenBucket
from repro.gameserver.protocol import solve_truncation_mu, truncated_normal_mean
from repro.router.cache import EvictionPolicy, RouteCache, simulate_cache
from repro.sim.engine import EventScheduler
from repro.stats.fitting import fit_best, ks_statistic


class TestSlotTableProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        capacity=st.integers(1, 32),
        operations=st.lists(
            st.tuples(st.booleans(), st.integers(0, 40)), max_size=200
        ),
    )
    def test_occupancy_invariants(self, capacity, operations):
        table = SlotTable(capacity=capacity)
        held = set()
        for is_admit, session_id in operations:
            if is_admit and session_id not in held:
                if table.try_admit(session_id):
                    held.add(session_id)
            elif not is_admit and session_id in held:
                table.release(session_id)
                held.remove(session_id)
            assert 0 <= len(table.occupied) <= capacity
            assert table.occupied == held
        assert table.accepted_total + table.refused_total >= len(table.occupied)


class TestTokenBucketProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        rate=st.floats(10.0, 10_000.0),
        chunks=st.lists(st.floats(1.0, 400.0), min_size=1, max_size=50),
    )
    def test_long_run_rate_never_exceeded(self, rate, chunks):
        capacity = 500.0
        bucket = TokenBucket(rate=rate, capacity=capacity)
        now = 0.0
        total = 0.0
        for chunk in chunks:
            when = bucket.earliest_send(now, chunk)
            assert when >= now
            bucket.consume(when, chunk)
            now = when
            total += chunk
        # everything beyond the initial burst allowance respects the rate
        if now > 0:
            assert total <= capacity + rate * now + 1e-6

    @settings(max_examples=50, deadline=None)
    @given(
        rate=st.floats(10.0, 1000.0),
        t1=st.floats(0.0, 10.0),
        dt=st.floats(0.0, 10.0),
    )
    def test_earliest_send_monotone_in_time(self, rate, t1, dt):
        bucket = TokenBucket(rate=rate, capacity=100.0)
        bucket.consume(0.0, 100.0)
        early = bucket.earliest_send(t1, 50.0)
        late = bucket.earliest_send(t1 + dt, 50.0)
        assert late >= t1 + dt or late == pytest.approx(early)


class TestRouteCacheProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        capacity=st.integers(1, 32),
        policy=st.sampled_from(list(EvictionPolicy)),
        keys=st.lists(st.integers(0, 50), min_size=1, max_size=400),
    )
    def test_cache_invariants(self, capacity, policy, keys):
        cache = RouteCache(capacity, policy=policy)
        simulate_cache(np.asarray(keys), np.full(len(keys), 40), cache)
        assert len(cache) <= capacity
        stats = cache.stats
        assert stats.hits + stats.misses == len(keys)
        assert stats.insertions <= stats.misses
        assert stats.evictions <= stats.insertions

    @settings(max_examples=40, deadline=None)
    @given(keys=st.lists(st.integers(0, 5), min_size=10, max_size=300))
    def test_small_working_set_eventually_all_hits(self, keys):
        cache = RouteCache(8, policy=EvictionPolicy.LRU)
        stream = np.asarray(keys)
        simulate_cache(stream, np.zeros(stream.size), cache)
        hits = cache.stats.hits
        # working set of <= 6 keys fits in an 8-entry cache: the second
        # half of a long stream must be all hits
        simulate_cache(stream, np.zeros(stream.size), cache)
        assert cache.stats.hits - hits == stream.size


class TestTruncationProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        target=st.floats(30.0, 300.0),
        sigma=st.floats(5.0, 80.0),
    )
    def test_solver_fixed_point(self, target, sigma):
        low, high = 20.0, 450.0
        if not low < target < high:
            return
        mu = solve_truncation_mu(target, sigma, low, high)
        assert truncated_normal_mean(mu, sigma, low, high) == pytest.approx(
            target, abs=1e-6
        )


class TestSchedulerProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        times=st.lists(
            st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=60
        )
    )
    def test_events_fire_in_time_order(self, times):
        scheduler = EventScheduler()
        fired = []
        for t in times:
            scheduler.schedule(t, lambda t=t: fired.append(scheduler.now))
        scheduler.run_until(math.inf)
        assert fired == sorted(fired)
        assert len(fired) == len(times)


class TestFittingProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        scale=st.floats(0.1, 100.0),
    )
    def test_exponential_identified(self, seed, scale):
        samples = np.random.default_rng(seed).exponential(scale, 3000)
        fitted = fit_best(samples)
        assert fitted.family == "exponential"
        assert fitted.params["scale"] == pytest.approx(scale, rel=0.1)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_ks_statistic_bounded(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(0, 1, 500)
        fitted = fit_best(samples, families=("normal",))
        assert 0.0 <= fitted.ks_statistic <= 1.0
        # self-fit KS must beat a grossly wrong CDF
        wrong = ks_statistic(samples, lambda x: np.clip(x / 1000.0 + 0.5, 0, 1))
        assert fitted.ks_statistic <= wrong
