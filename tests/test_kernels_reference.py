"""Parity suite: the kernels' scalar loops vs the per-element oracle.

The FIFO and tail-drop kernels run their per-packet recursions over
plain Python lists (``tolist()`` views of the span) and write fates and
departures back once per span.  ``kernels_reference.py`` keeps the
loops in their one-numpy-scalar-per-packet form.  Every case here
compares fates, departures, returned queue state and freeze windows
with exact equality: the list form changes where values are read and
written, never a float expression.

The ``@given`` sweeps run under the active hypothesis profile: tier-1
uses the default one, and ``--hypothesis-profile=deep`` (registered in
``conftest.py``) runs ten times as many examples.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernels_reference import (
    reference_fifo,
    reference_span,
    reference_tail_drop,
    reference_tail_drop_link,
)
from repro.kernels import FreezePolicy, fifo, fifo_forward, tail_drop_link
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


# ----------------------------------------------------------------------
# the fast path's drop spans, resumed at their first overflow
# ----------------------------------------------------------------------
def _stream(seed, n, load, service):
    """A sorted arrival stream and its service times.

    ``constant`` and ``jittered`` (lognormal, cv 0.3) services see
    Poisson arrivals at ``load`` times the service rate; ``lattice``
    puts arrivals and services (zeros included) on a 0.5 grid, so
    finishes tie with arrivals exactly.
    """
    rng = np.random.default_rng(seed)
    if service == "lattice":
        t = np.sort(rng.integers(0, max(1, int(n / load)), n)) * 0.5
        return t.astype(np.float64), rng.integers(0, 3, n) * 0.5
    mean = 1e-3
    t = np.cumsum(rng.exponential(mean / load, n))
    if service == "constant":
        return t, np.full(n, mean)
    sigma = np.sqrt(np.log(1.09))
    return t, rng.lognormal(np.log(mean) - 0.5 * sigma**2, sigma, n)


def _busy_periods(t, s):
    """``[head, end)`` of each no-drop busy period (the scalar recursion)."""
    heads, free = [], -np.inf
    for i, (now, service) in enumerate(zip(t.tolist(), s.tolist())):
        if not free > now:
            heads.append(i)
        free = max(now, free) + service
    return list(zip(heads, heads[1:] + [t.size]))


def _recorded_spans(monkeypatch):
    """Record the ``[start, end)`` of every ``_scalar_span`` call."""
    spans = []

    def recording(timestamps, service_times, queue, fates, departures,
                  start, end, engine_free, backlog):
        spans.append((start, end))
        return _scalar_span(timestamps, service_times, queue, fates,
                            departures, start, end, engine_free, backlog)

    monkeypatch.setattr(fifo, "_scalar_span", recording)
    return spans


class TestFifoResume:
    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 1500),
        load=st.floats(0.5, 3.0),
        queue=st.sampled_from([1, 2, 128]),
        service=st.sampled_from(["constant", "jittered", "lattice"]),
    )
    @example(seed=1, n=1500, load=3.0, queue=128, service="constant")
    @example(seed=2, n=1500, load=2.0, queue=2, service="lattice")
    def test_fifo_forward_matches_oracle(self, seed, n, load, queue, service):
        t, s = _stream(seed, n, load, service)
        ref_fates, ref_departures = _outputs(n)
        reference_fifo(t, s, None, queue, 1, (), None, ref_fates, ref_departures)
        result = fifo_forward(t, s, primary_queue=queue)
        assert_same(result.fates, result.departures, ref_fates, ref_departures)

    def test_first_overflow_deep_inside_a_long_busy_period(self, monkeypatch):
        # arrivals 1% faster than service: one busy period whose backlog
        # grows by a packet every ~100 arrivals, so the buffer of 8
        # first overflows ~800 rows past the period's head
        t = np.arange(3000) / 1.01
        s = np.ones(t.size)
        spans = _recorded_spans(monkeypatch)
        fates = assert_fifo_matches(t, s, primary_queue=8)
        first_drop = int(np.flatnonzero(fates == 0)[0])
        assert first_drop > 700
        assert spans == [(first_drop, t.size)]

    @pytest.mark.parametrize("queue", [1, 2, 3])
    def test_arrival_equal_to_a_no_drop_finish_at_the_resume_row(self, queue):
        # integral times, unit services: the first overflow's arrival
        # equals the finish just before the buffered ones, which has
        # left the buffer (finish <= now) — the resume state excludes it
        t = np.concatenate([np.zeros(queue), np.ones(queue + 2), [2.0, 9.0, 9.0]])
        s = np.ones(t.size)
        fates = assert_fifo_matches(t, s, primary_queue=queue)
        assert (fates == 0).any()

    def test_rerun_span_that_does_not_drain_raises(self, monkeypatch):
        # With drops the engine frees no later than the no-drop finish,
        # so a validated boundary always drains and the busy periods
        # after a rerun span stand.  A span that hands on a phantom
        # finish just past its boundary (as if residual work leaked into
        # the next busy period) breaks that invariant: the kernel must
        # refuse it rather than keep the stale rows downstream.
        rng = np.random.default_rng(12)
        bursts = np.repeat(np.cumsum(rng.exponential(50.0, 30)), 40)
        t = np.sort(bursts + rng.uniform(0.0, 10.0, bursts.size))
        s = rng.uniform(0.5, 1.5, t.size)
        spans = []

        def carrying(timestamps, service_times, queue, fates, departures,
                     start, end, engine_free, backlog):
            spans.append((start, end))
            engine_free, backlog = _scalar_span(
                timestamps, service_times, queue, fates, departures,
                start, end, engine_free, backlog,
            )
            if end < timestamps.size:
                backlog.append(float(np.nextafter(timestamps[end], np.inf)))
            return engine_free, backlog

        # unpatched, the stream drops packets inside spans that end
        # before the last row, so the patched kernel reaches the check
        fates = assert_fifo_matches(t, s, primary_queue=12)
        assert (fates == 0).any()
        monkeypatch.setattr(fifo, "_scalar_span", carrying)
        with pytest.raises(RuntimeError, match="still holds work at its boundary"):
            fifo_forward(t, s, primary_queue=12)
        assert len(spans) == 1 and spans[0][1] < t.size

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        queue=st.integers(1, 6),
        data=st.data(),
    )
    def test_scalar_span_state_with_zero_services(self, seed, n, queue, data):
        # lattice times with zero services: the last admitted finish can
        # equal its own arrival, and the returned backlog still holds it
        rng = np.random.default_rng(seed)
        t = np.sort(rng.integers(0, max(1, n // 2), n)) * 0.5
        s = np.where(rng.random(n) < 0.5, 0.0, rng.integers(0, 3, n) * 0.5)
        start = data.draw(st.integers(0, n))
        end = data.draw(st.integers(start, n))
        # queue state at `start`, from the oracle itself
        warm_fates, warm_departures = _outputs(n)
        engine_free, backlog = reference_span(
            t, s, queue, warm_fates, warm_departures, 0, start,
            float(t[0]), deque(),
        )
        ref_fates, ref_departures = _outputs(n)
        ref_state = reference_span(t, s, queue, ref_fates, ref_departures,
                                   start, end, engine_free, deque(backlog))
        fates, departures = _outputs(n)
        state = _scalar_span(t, s, queue, fates, departures,
                             start, end, engine_free, deque(backlog))
        assert_same(fates, departures, ref_fates, ref_departures)
        assert state[0] == ref_state[0]
        assert list(state[1]) == list(ref_state[1])

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("queue", [2, 16])
    def test_scalar_rows_start_at_the_first_overflow(self, monkeypatch, seed, queue):
        rng = np.random.default_rng(seed)
        # bursts at 2x the service rate between idle gaps: the buffer
        # first overflows part-way into each bursty busy period
        bursts = np.repeat(np.cumsum(rng.exponential(200.0, 30)), 80)
        t = np.sort(bursts + rng.uniform(0.0, 40.0, bursts.size))
        s = rng.uniform(0.5, 1.5, t.size)  # 80 arrivals in 40 time units
        spans = _recorded_spans(monkeypatch)
        fates = assert_fifo_matches(t, s, primary_queue=queue)
        rows = sum(end - start for start, end in spans)
        # a busy period drops first at its first overflow, so the
        # scalar rows are bounded by the dirty periods' rows from there
        dirty_rows = tail_rows = 0
        for head, end in _busy_periods(t, s):
            drops = np.flatnonzero(fates[head:end] == 0)
            if drops.size:
                dirty_rows += end - head
                tail_rows += end - head - int(drops[0])
        assert 0 < rows <= tail_rows < dirty_rows


# ----------------------------------------------------------------------
# two classes, blackouts and freezes on the fast path
# ----------------------------------------------------------------------
def assert_conserved(t, s, mask, fates, departures):
    """Fates partition each class; forwarded departures are a valid FIFO
    egress; only secondary packets are suppressed."""
    primary = np.ones(t.size, dtype=bool) if mask is None else np.asarray(mask)
    for side in (primary, ~primary):
        counts = [int(np.count_nonzero(fates[side] == fate)) for fate in (1, 0, -1)]
        assert sum(counts) == int(np.count_nonzero(side))
    assert not (fates[primary] == -1).any()
    forwarded = fates == 1
    assert np.isnan(departures[~forwarded]).all()
    out = departures[forwarded]
    assert (np.diff(out) >= 0.0).all()
    assert (out >= t[forwarded] + s[forwarded]).all()


def _two_class_stream(seed, n, load, lattice, share):
    """A sorted two-class stream: ``share`` of the packets are primary
    (``None``: no mask, every packet primary).

    ``lattice`` puts arrivals and services (zeros included) on a 0.5
    grid, so finishes tie with arrivals exactly.
    """
    rng = np.random.default_rng(seed)
    mask = None if share is None else rng.random(n) < share
    if lattice:
        t = np.sort(rng.integers(0, max(1, int(n / load)), n)) * 0.5
        return t.astype(np.float64), rng.integers(0, 3, n) * 0.5, mask
    t = np.cumsum(rng.exponential(1.0 / load, n))
    return t, rng.uniform(0.5, 1.5, n), mask


@st.composite
def _blackouts(draw, horizon):
    """Windows in any order: disjoint, overlapping and nested."""
    windows = []
    for _ in range(draw(st.integers(0, 6))):
        start = draw(st.floats(-1.0, horizon))
        length = draw(st.sampled_from([0.0, 0.5, 2.0, 10.0, horizon / 4]))
        windows.append((start, start + length))
        if draw(st.booleans()):  # a window nested inside this one
            windows.append((start + length / 4, start + length / 2))
    return windows


class TestTwoClassFastPath:
    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 1200),
        load=st.floats(0.3, 2.5),
        lattice=st.booleans(),
        share=st.sampled_from([None, 0.0, 0.2, 0.5, 1.0]),
        primary_queue=st.integers(1, 6),
        secondary_queue=st.integers(1, 8),
        freeze=st.one_of(
            st.none(),
            st.builds(
                FreezePolicy,
                threshold=st.integers(1, 4),
                window=st.sampled_from([0.0, 1.0, 5.0]),
                duration=st.sampled_from([0.0, 0.5, 3.0, 20.0]),
                lag=st.sampled_from([0.0, 0.5, 2.0]),
            ),
        ),
        data=st.data(),
    )
    def test_fast_path_matches_oracle(self, seed, n, load, lattice, share,
                                      primary_queue, secondary_queue, freeze,
                                      data):
        t, s, mask = _two_class_stream(seed, n, load, lattice, share)
        blackouts = data.draw(_blackouts(float(t[-1])))
        fates = assert_fifo_matches(t, s, mask, primary_queue, secondary_queue,
                                    blackouts, freeze)
        result = fifo_forward(t, s, primary_mask=mask,
                              primary_queue=primary_queue,
                              secondary_queue=secondary_queue,
                              blackouts=blackouts, freeze=freeze)
        assert_conserved(t, s, mask, fates, result.departures)

    @pytest.mark.parametrize("seed", range(4))
    def test_freezes_straddle_busy_period_boundaries(self, seed):
        # tick bursts of secondary packets with sparse primary arrivals
        # and long stalls: freezes trigger on the last rows of busy
        # periods and their ends fall in idle gaps or mid-burst
        rng = np.random.default_rng(seed)
        ticks = np.repeat(np.arange(0.0, 60.0, 0.5), 12)
        lan = ticks + np.tile(np.arange(12) * 0.01, ticks.size // 12)
        wan = np.sort(rng.uniform(0.0, 60.0, 900))
        t = np.concatenate([lan, wan])
        order = np.argsort(t, kind="stable")
        t = t[order]
        mask = np.concatenate([np.zeros(lan.size, bool), np.ones(wan.size, bool)])[order]
        s = rng.uniform(0.004, 0.012, t.size)
        stalls = [(float(a), float(a) + 0.4) for a in np.arange(3.0, 60.0, 7.3)]
        freeze = FreezePolicy(threshold=3, window=0.5, duration=0.75, lag=0.1)
        fates = assert_fifo_matches(t, s, mask, 3, 10, stalls, freeze)
        result = fifo_forward(t, s, primary_mask=mask, primary_queue=3,
                              secondary_queue=10, blackouts=stalls,
                              freeze=freeze)
        assert (fates == -1).any() and (fates == 0).any()
        assert_conserved(t, s, mask, fates, result.departures)

    def test_freeze_ending_on_a_busy_period_head(self):
        # lattice times: the freeze ends exactly at a later arrival,
        # which is not suppressed (`now < freeze_until` is strict)
        t = np.array([0.0, 1.0, 1.5, 2.0, 3.0, 3.0, 4.0])
        mask = np.array([True, True, False, False, False, True, False])
        s = np.array([0.0, 0.5, 0.5, 0.0, 0.5, 0.5, 0.5])
        freeze = FreezePolicy(threshold=1, window=1.0, duration=1.5, lag=0.5)
        fates = assert_fifo_matches(t, s, mask, 1, 1, [(1.0, 1.25)], freeze)
        np.testing.assert_array_equal(fates, [1, 0, -1, -1, 1, 1, 1])

    def test_rerun_spans_are_counted(self):
        # busy periods rerun on the scalar loop count as fallback
        # segments, the rest as fast ones
        t, s, mask = _two_class_stream(9, 3000, 0.6, False, 0.5)
        counters = fifo._counters()
        fast, rerun = counters.fast_segments.value, counters.scalar_fallback_segments.value
        fifo_forward(t, s, primary_mask=mask, primary_queue=2,
                     secondary_queue=3, blackouts=[(100.0, 140.0)])
        fast = counters.fast_segments.value - fast
        rerun = counters.scalar_fallback_segments.value - rerun
        assert fast > 0 and rerun > 0
        assert fast + rerun == len(_busy_periods(t, s))


# ----------------------------------------------------------------------
# tail-drop sweeps
# ----------------------------------------------------------------------
class TestTailDropSweep:
    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3000),
        load=st.floats(0.3, 4.0),
        buffer_packets=st.floats(1.0, 40.0),
        lattice=st.booleans(),
    )
    def test_scalar_loop_matches_oracle(self, seed, n, load, buffer_packets, lattice):
        rng = np.random.default_rng(seed)
        sizes = rng.choice([60.0, 90.0, 576.0, 1500.0], n)
        rate = 500_000.0  # B/s
        mean_gap = sizes.mean() / rate / load
        if lattice:  # arrivals tie exactly, on a power-of-two grid
            t = np.cumsum(rng.integers(0, 3, n)) * 2.0**-12
        else:
            t = np.cumsum(rng.exponential(mean_gap, n))
        buffer_bytes = buffer_packets * 576.0
        ref_fates, ref_departures = _outputs(n)
        ref_state = reference_tail_drop(t, sizes, rate, buffer_bytes, ref_fates,
                                        ref_departures, 0, n, 0.0, float(t[0]))
        fates, departures = _outputs(n)
        state = _scalar_tail_drop(t, sizes, rate, buffer_bytes, fates,
                                  departures, 0, n, 0.0, float(t[0]))
        assert_same(fates, departures, ref_fates, ref_departures)
        assert state == ref_state
        # the link's closed-form chunks round departures differently from
        # the recursion (by an ulp or so), never a fate
        link_fates, link_departures = tail_drop_link(t, sizes, 8.0 * rate,
                                                     buffer_bytes)
        np.testing.assert_array_equal(link_fates, ref_fates)
        np.testing.assert_allclose(link_departures, ref_departures,
                                   rtol=1e-12, atol=0.0)

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 500),
        backlog=st.floats(0.0, 30_000.0),
        data=st.data(),
    )
    def test_scalar_span_resumes_queue_state(self, seed, n, backlog, data):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 0.1, n))
        sizes = rng.integers(0, 1500, n).astype(float)
        start = data.draw(st.integers(0, n - 1))
        end = data.draw(st.integers(start, n))
        args = (2e5, 20_000.0)
        state_in = (backlog, float(t[start]) - float(rng.uniform(0.0, 0.05)))
        ref_fates, ref_departures = _outputs(n)
        ref_state = reference_tail_drop(t, sizes, *args, ref_fates,
                                        ref_departures, start, end, *state_in)
        fates, departures = _outputs(n)
        state = _scalar_tail_drop(t, sizes, *args, fates, departures,
                                  start, end, *state_in)
        assert_same(fates, departures, ref_fates, ref_departures)
        assert state == ref_state
