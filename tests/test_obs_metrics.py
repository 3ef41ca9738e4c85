"""Tests for the process-local metrics registry (repro.obs.metrics)."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
    reset_metrics,
)


class TestCounter:
    def test_increments_accumulate(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = Counter("c")
        with pytest.raises(ValueError, match="negative increment"):
            counter.inc(-1)
        assert counter.value == 0

    def test_reset_zeroes(self):
        counter = Counter("c")
        counter.inc(7)
        counter.reset()
        assert counter.value == 0


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5
        gauge.reset()
        assert gauge.value == 0.0


class TestHistogram:
    def test_streaming_summary(self):
        hist = Histogram("h")
        hist.observe_many([2.0, 4.0, 9.0])
        assert hist.count == 3
        assert hist.total == 15.0
        assert hist.mean == 5.0
        assert hist.min == 2.0
        assert hist.max == 9.0
        assert hist.summary() == {
            "count": 3,
            "total": 15.0,
            "mean": 5.0,
            "min": 2.0,
            "max": 9.0,
        }

    def test_empty_summary_is_json_safe(self):
        # no inf/-inf leaks into the JSON manifest for untouched hists
        assert Histogram("h").summary() == {"count": 0, "total": 0.0}

    def test_reset_restores_sentinels(self):
        hist = Histogram("h")
        hist.observe(1.0)
        hist.reset()
        assert hist.count == 0
        assert hist.min == math.inf
        assert hist.max == -math.inf


def _observe_loop(hist, values):
    """The per-value loop ``Histogram.observe_many`` must reproduce."""
    for value in values:
        hist.observe(value)


def _state(hist):
    """Histogram state with floats as bit patterns (NaN and -0.0 exact)."""
    bits = lambda x: struct.pack("<d", x)  # noqa: E731
    return hist.count, bits(hist.total), bits(hist.min), bits(hist.max)


_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308]),
    st.integers(min_value=-(2**60), max_value=2**60),
)


class TestObserveManyEqualsTheLoop:
    @given(
        prior=st.lists(_values, max_size=5),
        values=st.lists(_values, max_size=40),
        as_array=st.booleans(),
    )
    def test_same_state_as_observing_one_at_a_time(self, prior, values, as_array):
        looped, batched = Histogram("a"), Histogram("b")
        _observe_loop(looped, prior)
        _observe_loop(batched, prior)
        _observe_loop(looped, values)
        if as_array:
            batched.observe_many(np.asarray(values, dtype=np.float64))
        else:
            batched.observe_many(values)
        assert _state(batched) == _state(looped)
        assert type(batched.total) is float
        assert type(batched.min) is float and type(batched.max) is float

    @pytest.mark.parametrize(
        "values",
        [[], [math.nan], [0.0, -0.0], [-0.0, 0.0], [math.nan, -0.0, 0.0, 3]],
        ids=["empty", "nan only", "zero first", "minus zero first", "mixed"],
    )
    def test_edge_cases(self, values):
        looped, batched = Histogram("a"), Histogram("b")
        _observe_loop(looped, values)
        batched.observe_many(iter(values))
        assert _state(batched) == _state(looped)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1
        assert "a" in reg

    def test_name_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="Counter"):
            reg.gauge("a")
        with pytest.raises(TypeError):
            reg.histogram("a")

    def test_reset_is_in_place(self):
        # modules cache metric objects at import time; reset must zero
        # the same objects, never replace them
        reg = MetricsRegistry()
        counter = reg.counter("a")
        hist = reg.histogram("b")
        counter.inc(3)
        hist.observe(1.0)
        reg.reset()
        assert reg.counter("a") is counter
        assert reg.histogram("b") is hist
        assert counter.value == 0
        assert hist.count == 0

    def test_snapshot_sorted_and_json_safe(self):
        import json

        reg = MetricsRegistry()
        reg.counter("z.count").inc(2)
        reg.gauge("a.level").set(0.5)
        reg.histogram("m.delay").observe_many([1.0, 3.0])
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["z.count"] == 2
        assert snap["a.level"] == 0.5
        assert snap["m.delay"]["mean"] == 2.0
        json.dumps(snap)  # must not raise


class TestProcessRegistry:
    def test_registry_is_a_stable_singleton(self):
        assert registry() is registry()

    def test_reset_metrics_keeps_the_registry_object(self):
        reg = registry()
        reg.counter("test.only.probe").inc(5)
        reset_metrics()
        assert registry() is reg
        assert reg.counter("test.only.probe").value == 0


class TestLayerPublication:
    """The instrumented layers actually publish into the registry."""

    def test_fifo_kernel_counts_packets_and_segments(self):
        import numpy as np

        from repro.kernels import fifo_forward

        reset_metrics()
        reg = registry()
        arrivals = np.arange(100, dtype=np.float64)
        fifo_forward(arrivals, np.full(100, 0.5), primary_queue=4)
        assert reg.counter("kernels.fifo.packets").value == 100
        assert reg.counter("kernels.fifo.fast_path_calls").value == 1
        segments = (
            reg.counter("kernels.fifo.fast_segments").value
            + reg.counter("kernels.fifo.scalar_fallback_segments").value
        )
        assert segments >= 1

    def test_fifo_scalar_path_counted(self):
        import numpy as np

        from repro.kernels import fifo_forward

        reset_metrics()
        # an unsorted stream cannot be split into busy periods
        fifo_forward(
            np.array([0.0, 2.0, 1.0, 3.0]),
            np.full(4, 0.5),
            primary_mask=np.ones(4, dtype=bool),
        )
        assert registry().counter("kernels.fifo.scalar_calls").value == 1
        # a sorted two-class stream takes the fast path
        fifo_forward(
            np.arange(10, dtype=np.float64),
            np.full(10, 0.5),
            primary_mask=np.arange(10) % 2 == 0,
        )
        reg = registry()
        assert reg.counter("kernels.fifo.scalar_calls").value == 1
        assert reg.counter("kernels.fifo.fast_path_calls").value == 1

    def test_shard_map_counts_tasks(self):
        from repro.fleet.execution import shard_map

        reset_metrics()
        shard_map(abs, [-1, -2, -3], workers=1)
        assert registry().counter("fleet.tasks").value == 3

    def test_matchmaking_publishes_admission_totals(self):
        from repro.fleet.profiles import hosting_facility
        from repro.matchmaking import PoolConfig, simulate_matchmaking

        reset_metrics()
        fleet = hosting_facility(n_servers=2, duration=300.0, seed=1)
        config = PoolConfig.for_fleet(fleet, epoch_length=60.0)
        result = simulate_matchmaking(fleet, "least_loaded", config)
        reg = registry()
        assert (
            reg.counter("matchmaking.attempts").value
            == result.admission.attempts
        )
        assert (
            reg.counter("matchmaking.admitted").value
            == result.admission.admitted
        )
        occupancy = reg.histogram("matchmaking.epoch_occupancy")
        assert occupancy.count == result.occupancy.shape[1]

    def test_columnar_engine_counts_segments_and_fallbacks(self):
        from repro.fleet.profiles import hosting_facility
        from repro.matchmaking import PoolConfig, simulate_matchmaking

        reset_metrics()
        fleet = hosting_facility(n_servers=2, duration=300.0, seed=1)
        config = PoolConfig.for_fleet(fleet, epoch_length=60.0)
        result = simulate_matchmaking(fleet, "least_loaded", config)
        reg = registry()
        segments = reg.counter("matchmaking.columnar.segments").value
        vectorised = reg.counter(
            "matchmaking.columnar.vectorised_attempts"
        ).value
        fallback = reg.counter(
            "matchmaking.columnar.scalar_fallback_attempts"
        ).value
        assert segments >= 1
        # every attempt is accounted to exactly one of the two paths
        assert vectorised + fallback == result.admission.attempts
