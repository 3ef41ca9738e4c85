"""Parity suite: the kernels' scalar loops vs the per-element oracle.

The FIFO and tail-drop kernels run their per-packet recursions over
plain Python lists (``tolist()`` views of the span) and write fates and
departures back once per span.  ``kernels_reference.py`` keeps the
loops in their one-numpy-scalar-per-packet form.  Every case here
compares fates, departures, returned queue state and freeze windows
with exact equality: the list form changes where values are read and
written, never a float expression.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from kernels_reference import (
    reference_fifo,
    reference_span,
    reference_tail_drop,
    reference_tail_drop_link,
)
from repro.kernels import FreezePolicy, fifo_forward, tail_drop_link
from repro.kernels.fifo import _scalar_fifo, _scalar_span
from repro.kernels.taildrop import _scalar_tail_drop


def _outputs(n):
    return np.ones(n, dtype=np.int8), np.full(n, np.nan)


def assert_same(fates, departures, ref_fates, ref_departures):
    np.testing.assert_array_equal(fates, ref_fates)
    assert np.array_equal(departures, ref_departures, equal_nan=True)


def assert_fifo_matches(t, s, mask=None, primary_queue=1, secondary_queue=1,
                        blackouts=(), freeze=None):
    """``_scalar_fifo`` and ``fifo_forward`` both equal the oracle."""
    t = np.asarray(t, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    ref_fates, ref_departures = _outputs(t.size)
    ref_windows = reference_fifo(t, s, mask, primary_queue, secondary_queue,
                                 blackouts, freeze, ref_fates, ref_departures)
    fates, departures = _outputs(t.size)
    windows = _scalar_fifo(t, s, mask, primary_queue, secondary_queue,
                           blackouts, freeze, fates, departures)
    assert_same(fates, departures, ref_fates, ref_departures)
    assert windows == ref_windows
    result = fifo_forward(t, s, primary_mask=mask, primary_queue=primary_queue,
                          secondary_queue=secondary_queue, blackouts=blackouts,
                          freeze=freeze)
    assert_same(result.fates, result.departures, ref_fates, ref_departures)
    assert result.freeze_windows == ref_windows
    return ref_fates


class TestFifo:
    @pytest.mark.parametrize("seed", range(4))
    def test_overflowing_busy_periods(self, seed):
        rng = np.random.default_rng(seed)
        # bursts of back-to-back arrivals at 3x the service rate, with
        # idle gaps between them: the fast path reruns the overflowing
        # busy periods on the scalar span
        bursts = np.repeat(np.cumsum(rng.exponential(50.0, 40)), 30)
        t = np.sort(bursts + rng.uniform(0.0, 10.0, bursts.size))
        s = rng.uniform(0.5, 1.5, t.size)
        fates = assert_fifo_matches(t, s, primary_queue=8)
        assert (fates == 0).any() and (fates == 1).any()

    def test_finish_equal_to_arrival(self):
        # integral times and services: every finish lands exactly on a
        # later arrival, so `backlog[0] <= now` decides each tie
        t = np.repeat(np.arange(0.0, 40.0, 2.0), 3)
        s = np.ones(t.size)
        fates = assert_fifo_matches(t, s, primary_queue=2)
        assert (fates == 0).any()

    def test_zero_service_times(self):
        rng = np.random.default_rng(7)
        t = np.sort(rng.integers(0, 50, 400).astype(float))
        s = np.where(rng.random(t.size) < 0.5, 0.0, rng.uniform(0.0, 2.0, t.size))
        assert_fifo_matches(t, s, primary_queue=3)

    def test_queue_of_one(self):
        rng = np.random.default_rng(8)
        t = np.sort(rng.uniform(0.0, 100.0, 500))
        s = rng.uniform(0.1, 0.5, t.size)
        fates = assert_fifo_matches(t, s, primary_queue=1)
        assert (fates == 0).any()

    @pytest.mark.parametrize("seed", range(3))
    def test_two_classes_with_blackouts_and_freeze(self, seed):
        rng = np.random.default_rng(100 + seed)
        t = np.sort(rng.uniform(0.0, 60.0, 3000))
        s = rng.uniform(0.005, 0.03, t.size)
        mask = rng.random(t.size) < 0.5
        blackouts = ((5.0, 6.5), (20.0, 20.2), (41.0, 44.0))
        freeze = FreezePolicy(threshold=4, window=0.5, duration=1.5, lag=0.1)
        fates = assert_fifo_matches(t, s, mask=mask, primary_queue=4,
                                    secondary_queue=6, blackouts=blackouts,
                                    freeze=freeze)
        assert (fates == -1).any() and (fates == 0).any()


class TestScalarSpan:
    def test_resume_with_a_non_empty_backlog(self):
        rng = np.random.default_rng(3)
        t = np.sort(rng.uniform(0.0, 20.0, 600))
        s = rng.uniform(0.02, 0.08, t.size)
        queue = 5
        # queue state carried in from before the span: busy engine and
        # a full buffer whose entries expire part-way through
        backlog = deque(float(t[100]) + 0.01 * k for k in range(1, queue + 1))
        engine_free = backlog[-1]
        ref_fates, ref_departures = _outputs(t.size)
        ref_state = reference_span(t, s, queue, ref_fates, ref_departures,
                                   100, 500, engine_free, deque(backlog))
        fates, departures = _outputs(t.size)
        state = _scalar_span(t, s, queue, fates, departures,
                             100, 500, engine_free, deque(backlog))
        assert_same(fates, departures, ref_fates, ref_departures)
        assert state[0] == ref_state[0]
        assert list(state[1]) == list(ref_state[1])
        assert (ref_fates[100:500] == 0).any()
        # rows outside the span are untouched
        assert (fates[:100] == 1).all() and np.isnan(departures[500:]).all()


class TestTailDrop:
    def test_overloaded_link_with_mixed_sizes(self):
        rng = np.random.default_rng(32)
        n = 20_000
        t = np.sort(rng.uniform(0.0, 2.0, n))
        sizes = rng.choice([60.0, 90.0, 576.0, 1500.0], n)
        offered_bps = 8.0 * sizes.sum() / 2.0
        rate_bps = offered_bps / 3.2
        fates, departures = tail_drop_link(t, sizes, rate_bps, 30_000.0)
        ref_fates, ref_departures = reference_tail_drop_link(
            t, sizes, rate_bps, 30_000.0
        )
        assert_same(fates, departures, ref_fates, ref_departures)
        # the link sheds about 1 - 1/3.2 of the offered bytes
        assert sizes[fates == 0].sum() / sizes.sum() > 0.6

    def test_scalar_span_resumes_queue_state(self):
        rng = np.random.default_rng(33)
        t = np.sort(rng.uniform(0.0, 1.0, 5000))
        sizes = rng.integers(40, 1500, t.size).astype(float)
        rate = 2e5
        ref_fates, ref_departures = _outputs(t.size)
        ref_state = reference_tail_drop(t, sizes, rate, 20_000.0, ref_fates,
                                        ref_departures, 1000, 4000, 15_000.0,
                                        float(t[999]))
        fates, departures = _outputs(t.size)
        state = _scalar_tail_drop(t, sizes, rate, 20_000.0, fates, departures,
                                  1000, 4000, 15_000.0, float(t[999]))
        assert_same(fates, departures, ref_fates, ref_departures)
        assert state == ref_state
