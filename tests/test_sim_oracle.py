"""The event scheduler against the one-handle-per-event oracle.

:class:`repro.sim.engine.EventScheduler` queues bare callbacks for
fire-and-forget events and builds an :class:`~repro.sim.events.Event`
only for the cancellable ones; ``tests/sim_reference.py`` keeps the
scheduler that built a handle for every event.  Hypothesis draws random
programs of ``schedule``, ``call_at``/``call_in`` (a plain
``schedule``/``schedule_in`` on the oracle), cancels, periodic
events and their stops, callbacks that schedule more events at the
current time, priorities and tiled ``run_until`` horizons, with a
final drain to ``inf`` (some before the clock, some with ``max_events``), and runs each
program on both.  Every callback, clock reading, count, return value and
refusal must match.

Under the ``deep`` profile (``--hypothesis-profile=deep``) the sweep
draws ten times the default number of programs.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import EventScheduler, SimulationError
from sim_reference import ReferenceScheduler

# few distinct times and priorities, so ties are common; an int time
# checks that the clock stays a float; NaN and negative values are refused
_TIME = st.one_of(
    st.integers(0, 6).map(lambda k: 0.25 * k),
    st.integers(0, 1),
    st.sampled_from([-0.5, float("nan")]),
)
_PRIORITY = st.integers(-1, 1)
_POST_KIND = st.sampled_from(["schedule", "call_at", "call_in"])

#: What a callback does when it runs.
_LEAF_ACTION = st.one_of(
    st.none(),
    st.tuples(st.just("cancel"), st.integers(0, 3)),
    st.tuples(st.just("stop"), st.integers(0, 1)),
)
_ACTION = st.one_of(
    _LEAF_ACTION,
    # a child at the current time, before or after the running event's
    # priority
    st.tuples(st.just("child"), _POST_KIND, st.integers(-1, 2), _LEAF_ACTION),
)
_POST = st.tuples(st.just("post"), _POST_KIND, _TIME, _PRIORITY, _ACTION)
_PERIODIC = st.tuples(
    st.just("periodic"),
    st.sampled_from([0.25, 0.5, 0.75]),
    st.one_of(st.none(), st.integers(0, 6).map(lambda k: 0.25 * k)),
    _PRIORITY,
    st.one_of(st.none(), st.integers(1, 4)),  # stops itself after k firings
)
_MOVE = st.one_of(
    _POST,
    _POST,
    _POST,
    _PERIODIC,
    st.tuples(
        st.just("run_until"),
        st.one_of(st.integers(0, 10).map(lambda k: 0.25 * k), st.integers(0, 2)),
        st.one_of(st.none(), st.integers(0, 6)),
    ),
    st.tuples(st.just("cancel"), st.integers(0, 3)),
    st.tuples(st.just("stop"), st.integers(0, 1)),
)


def _execute(sched: Any, program: List[tuple], fire_and_forget: bool) -> List[tuple]:
    """Run ``program`` on ``sched``; everything observable, in order."""
    log: List[tuple] = []
    handles: List[Any] = []  # the cancellable events, in creation order
    stops: List[Callable[[], None]] = []

    def observe(*tag: Any) -> None:
        assert type(sched.now) is float or not fire_and_forget
        log.append(tag + (sched.now, sched.executed_count))

    def act(action: Any, priority: int) -> None:
        if action is None:
            return
        if action[0] == "cancel":
            if action[1] < len(handles):
                log.append(("cancelled", action[1], handles[action[1]].cancel()))
        elif action[0] == "stop":
            if action[1] < len(stops):
                stops[action[1]]()
                log.append(("stopped", action[1]))
        else:
            _, kind, offset, leaf = action
            when = sched.now if kind in ("schedule", "call_at") else 0.0
            post(kind, when, priority + offset, leaf)

    def post(kind: str, when: Any, priority: int, action: Any) -> None:
        tag = len(log)

        def callback() -> None:
            observe("ran", tag)
            act(action, priority)

        if kind == "schedule" or (kind == "call_at" and not fire_and_forget):
            event = sched.schedule(when, callback, priority)
            if kind == "schedule":
                handles.append(event)
        elif not fire_and_forget:
            sched.schedule_in(when, callback, priority)
        elif kind == "call_at":
            assert sched.call_at(when, callback, priority) is None
        else:
            assert sched.call_in(when, callback, priority) is None
        observe("posted", kind)

    def periodic(interval: float, start: Any, priority: int, limit: Any) -> None:
        index = len(stops)
        fired = [0]

        def callback() -> None:
            fired[0] += 1
            observe("tick", index, fired[0])
            if fired[0] == limit:
                stops[index]()

        stops.append(sched.schedule_periodic(interval, callback, start, priority))
        observe("periodic", index)

    for move in program:
        try:
            if move[0] == "post":
                post(*move[1:])
            elif move[0] == "periodic":
                periodic(*move[1:])
            elif move[0] == "run_until":
                log.append(("ran_until", sched.run_until(move[1], max_events=move[2])))
            else:
                act(move, 0)
        except SimulationError:
            log.append(("refused", move[0]))
        observe("after", move[0])
    # drain what is left (stop the periodic events first, or it never ends)
    for stop in stops:
        stop()
    log.append(("ran", sched.run_until(math.inf, max_events=10_000)))
    observe("end")
    return log


class TestSchedulerOracle:
    @settings(deadline=None)
    @given(program=st.lists(_MOVE, min_size=8, max_size=60))
    def test_same_callbacks_order_clock_and_counts(self, program):
        expected = _execute(ReferenceScheduler(), program, fire_and_forget=False)
        assert _execute(EventScheduler(), program, fire_and_forget=True) == expected

    def test_cancelled_handle_is_not_counted(self):
        # a cancelled handle popped inside run_until takes back the count
        # the loop gave it, also against max_events
        new, ref = EventScheduler(), ReferenceScheduler()
        new.schedule(1.0, lambda: None).cancel()
        new.call_at(1.0, lambda: None)
        ref.schedule(1.0, lambda: None).cancel()
        ref.schedule(1.0, lambda: None)
        for sched in (new, ref):
            assert sched.run_until(2.0, max_events=1) == 1
            assert sched.executed_count == 1
