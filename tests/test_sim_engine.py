"""Unit tests for the discrete-event scheduler."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import EventScheduler, SimulationError


class TestScheduling:
    def test_starts_at_given_time(self):
        assert EventScheduler(start_time=5.0).now == 5.0

    def test_schedule_and_run_until(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append(sched.now))
        sched.schedule(2.0, lambda: fired.append(sched.now))
        executed = sched.run_until(1.5)
        assert executed == 1
        assert fired == [1.0]
        assert sched.now == 1.5

    def test_event_exactly_at_horizon_runs(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(2.0, lambda: fired.append(True))
        sched.run_until(2.0)
        assert fired == [True]

    def test_schedule_in_past_raises(self):
        sched = EventScheduler()
        sched.run_until(10.0)
        with pytest.raises(SimulationError):
            sched.schedule(5.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            EventScheduler().schedule_in(-1.0, lambda: None)

    def test_run_until_backwards_raises(self):
        sched = EventScheduler()
        sched.run_until(10.0)
        with pytest.raises(SimulationError):
            sched.run_until(5.0)

    def test_schedule_at_current_time_allowed(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(0.0, lambda: fired.append(True))
        sched.run_until(0.0)
        assert fired == [True]


class TestOrdering:
    def test_simultaneous_events_run_in_insertion_order(self):
        sched = EventScheduler()
        order = []
        sched.schedule(1.0, lambda: order.append("a"))
        sched.schedule(1.0, lambda: order.append("b"))
        sched.run_until(1.0)
        assert order == ["a", "b"]

    def test_priority_overrides_insertion_order(self):
        sched = EventScheduler()
        order = []
        sched.schedule(1.0, lambda: order.append("late"), priority=1)
        sched.schedule(1.0, lambda: order.append("early"), priority=-1)
        sched.run_until(1.0)
        assert order == ["early", "late"]

    def test_callbacks_can_schedule_more_events(self):
        sched = EventScheduler()
        fired = []

        def chain():
            fired.append(sched.now)
            if len(fired) < 3:
                sched.schedule_in(1.0, chain)

        sched.schedule(1.0, chain)
        sched.run_until(math.inf)
        assert fired == [1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sched = EventScheduler()
        fired = []
        event = sched.schedule(1.0, lambda: fired.append(True))
        assert event.cancel()
        sched.run_until(2.0)
        assert fired == []

    def test_double_cancel_returns_false(self):
        sched = EventScheduler()
        event = sched.schedule(1.0, lambda: None)
        assert event.cancel()
        assert not event.cancel()


class TestPeriodic:
    def test_fires_at_fixed_interval(self):
        sched = EventScheduler()
        times = []
        sched.schedule_periodic(0.5, lambda: times.append(sched.now))
        sched.run_until(2.2)
        assert times == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_stop_halts_firing(self):
        sched = EventScheduler()
        times = []
        stop = sched.schedule_periodic(0.5, lambda: times.append(sched.now))
        sched.run_until(1.0)
        stop()
        sched.run_until(3.0)
        assert times == pytest.approx([0.5, 1.0])

    def test_custom_start(self):
        sched = EventScheduler()
        times = []
        sched.schedule_periodic(1.0, lambda: times.append(sched.now), start=0.25)
        sched.run_until(2.5)
        assert times == pytest.approx([0.25, 1.25, 2.25])

    def test_non_positive_interval_raises(self):
        with pytest.raises(SimulationError):
            EventScheduler().schedule_periodic(0.0, lambda: None)

    def test_no_drift_accumulation(self):
        sched = EventScheduler()
        times = []
        sched.schedule_periodic(0.05, lambda: times.append(sched.now))
        sched.run_until(100.0)
        # the 2000th tick must land on the exact grid, not drifted floats
        assert len(times) >= 1999
        assert times[-1] == pytest.approx(0.05 * len(times), abs=1e-6)


class TestBounds:
    def test_max_events_guard(self):
        sched = EventScheduler()

        def storm():
            sched.schedule_in(0.001, storm)

        sched.schedule(0.0, storm)
        with pytest.raises(SimulationError):
            sched.run_until(1000.0, max_events=100)

    def test_nan_time_rejected(self):
        sched = EventScheduler()
        with pytest.raises(SimulationError):
            sched.schedule(float("nan"), lambda: None)
        assert sched.run_until(1.0) == 0

    def test_nan_horizon_rejected(self):
        # max_events only keeps a faulty scheduler from spinning forever:
        # the NaN must be refused before any event runs
        sched = EventScheduler()
        sched.schedule_periodic(0.05, lambda: None)
        with pytest.raises(SimulationError, match="before now"):
            sched.run_until(float("nan"), max_events=100)
        assert sched.executed_count == 0
        assert sched.now == 0.0

    def test_run_until_inf_drains_heap(self):
        sched = EventScheduler()
        for i in range(5):
            sched.schedule(float(i), lambda: None)
        assert sched.run_until(math.inf) == 5
        assert sched.run_until(math.inf) == 0
        assert sched.executed_count == 5


#: One initially scheduled event: (time, priority, cancel before the run,
#: index of an initial event its callback cancels or None, priority
#: offset of a child it schedules at ``now`` or None).
_EVENT = st.tuples(
    st.integers(0, 4).map(lambda k: 0.5 * k),  # few distinct times: many ties
    st.integers(-2, 2),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 29)),
    st.one_of(st.none(), st.integers(0, 2)),
)


class TestOrderProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        events=st.lists(_EVENT, min_size=1, max_size=30),
        horizon=st.integers(0, 5).map(lambda k: 0.5 * k),
    )
    def test_runs_the_uncancelled_events_in_key_order(self, events, horizon):
        sched = EventScheduler()
        created = []  # every handle the scheduler returned
        cancelled = set()  # seqs whose cancel() reported success
        ran = []  # keys in execution order
        handles = []

        def key(event):
            return (event.time, event.priority, event.seq)

        def cancel(event):
            if event.cancel():
                cancelled.add(event.seq)

        def make(spec):
            _, priority, _, target, child = spec
            index = len(handles)

            def callback():
                event = handles[index]
                ran.append(key(event))
                assert sched.now == event.time
                if target is not None and target < len(handles):
                    cancel(handles[target])
                if child is not None:
                    # at now, never sorting before the running event
                    kid = sched.schedule(
                        sched.now, lambda: ran.append(key(kid)),
                        priority=priority + child,
                    )
                    created.append(kid)

            return callback

        for spec in events:
            handles.append(sched.schedule(spec[0], make(spec), priority=spec[1]))
        created.extend(handles)
        for spec, handle in zip(events, handles):
            if spec[2]:
                cancel(handle)

        executed = sched.run_until(horizon)
        live = sorted(key(e) for e in created if e.seq not in cancelled)
        due = [k for k in live if k[0] <= horizon]
        assert ran == due
        assert executed == len(due) == sched.executed_count
        assert sched.now == horizon

        sched.run_until(math.inf)
        live = sorted(key(e) for e in created if e.seq not in cancelled)
        assert ran == live
        assert sched.executed_count == len(live)
