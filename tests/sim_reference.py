"""Test oracle: the event scheduler with one handle object per event.

:class:`repro.sim.engine.EventScheduler` pushes bare callbacks for
fire-and-forget events and builds a cancellable handle only when asked.
This module keeps the scheduler it must reproduce in its original form:
every ``schedule`` builds a :class:`ReferenceEvent`, the heap holds
``(time, priority, seq, event)`` entries, and the run loop checks each
popped event's state.  ``tests/test_sim_oracle.py`` runs random
programs against both and compares every callback, clock reading and
count.  It only needs to be obviously correct, not fast.

``tests/`` is not a package: test modules import this file by name (the
test directory is on ``sys.path`` under pytest).
"""

from __future__ import annotations

import enum
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.engine import SimulationError


class RefState(enum.Enum):
    """Lifecycle of a scheduled event."""

    PENDING = "pending"
    EXECUTED = "executed"
    CANCELLED = "cancelled"


class ReferenceEvent:
    """A callback scheduled at a simulated time.

    Parameters
    ----------
    time:
        Absolute simulation time (seconds) at which to fire.
    seq:
        Monotone sequence number assigned by the scheduler; ties on
        ``time`` and ``priority`` break by insertion order.
    callback:
        Zero-argument callable invoked when the event fires.  Arguments
        should be bound with :func:`functools.partial` or a closure.
    priority:
        Lower priorities fire first among events with equal time.  The
        default of 0 suits almost all uses; the game server uses a
        negative priority for its tick so that state broadcast precedes
        same-instant client arrivals.
    label:
        Optional human-readable tag, used in error messages and tests.
    """

    __slots__ = ("time", "seq", "callback", "priority", "label", "state")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        priority: int = 0,
        label: Optional[str] = None,
    ) -> None:
        self.time = float(time)
        self.seq = seq
        self.callback = callback
        self.priority = priority
        self.label = label
        self.state = RefState.PENDING

    def cancel(self) -> bool:
        """Cancel a pending event.

        Returns ``True`` if the event was pending and is now cancelled,
        ``False`` if it had already executed or been cancelled.  Cancelled
        events stay in the heap and are skipped lazily when popped, which
        keeps cancellation O(1).
        """
        if self.state is not RefState.PENDING:
            return False
        self.state = RefState.CANCELLED
        return True

    @property
    def pending(self) -> bool:
        """Whether the event is still waiting to fire."""
        return self.state is RefState.PENDING

    @property
    def cancelled(self) -> bool:
        """Whether the event was cancelled before firing."""
        return self.state is RefState.CANCELLED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.label!r}" if self.label else ""
        return f"<Event t={self.time:.6f}{tag} {self.state.value}>"


class ReferenceScheduler:
    """The scheduler as it was: one :class:`ReferenceEvent` per event.

    Parameters
    ----------
    start_time:
        Initial simulation clock value in seconds (default 0.0).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, int, ReferenceEvent]] = []
        self._seq = 0
        self._executed = 0
        self._running = False
        self._stopped = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending_count(self) -> int:
        """Number of events still pending (excludes lazily-cancelled ones)."""
        pending = RefState.PENDING
        return sum(1 for entry in self._heap if entry[3].state is pending)

    @property
    def executed_count(self) -> int:
        """Total number of callbacks executed so far."""
        return self._executed

    def schedule(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = 0,
        label: Optional[str] = None,
    ) -> ReferenceEvent:
        """Schedule ``callback`` at absolute simulation ``time``.

        Returns the :class:`ReferenceEvent` handle, which can be cancelled.
        Scheduling exactly at the current time is allowed (the event runs
        before time advances); scheduling strictly in the past, or at NaN,
        raises.
        """
        if not (time >= self._now):
            raise SimulationError(
                f"cannot schedule at t={time:.9f} before now={self._now:.9f}"
            )
        seq = self._seq
        event = ReferenceEvent(time, seq, callback, priority, label)
        self._seq = seq + 1
        heappush(self._heap, (event.time, priority, seq, event))
        return event

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], Any],
        priority: int = 0,
        label: Optional[str] = None,
    ) -> ReferenceEvent:
        """Schedule ``callback`` after ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule(self._now + delay, callback, priority, label)

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[[], Any],
        start: Optional[float] = None,
        priority: int = 0,
        label: Optional[str] = None,
    ) -> Callable[[], None]:
        """Run ``callback`` every ``interval`` seconds until stopped.

        Returns a zero-argument ``stop`` function.  The first firing is at
        ``start`` (default: now + interval).  The period is fixed — drift
        does not accumulate because each next firing is computed from the
        previous scheduled time, matching how a game server tick behaves.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval!r}")
        state = {"stopped": False, "event": None}
        first = self._now + interval if start is None else start

        def fire() -> None:
            if state["stopped"]:
                return
            callback()
            if not state["stopped"]:
                state["event"] = self.schedule(
                    state["event"].time + interval, fire, priority, label
                )

        state["event"] = self.schedule(first, fire, priority, label)

        def stop() -> None:
            state["stopped"] = True
            event = state["event"]
            if event is not None:
                event.cancel()

        return stop

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the heap is empty.
        """
        while self._heap:
            event = heappop(self._heap)[3]
            if event.state is RefState.CANCELLED:
                continue
            self._now = event.time
            event.state = RefState.EXECUTED
            self._executed += 1
            event.callback()
            return True
        return False

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events until the clock would pass ``end_time``.

        Events scheduled exactly at ``end_time`` are executed.  The clock
        is advanced to ``end_time`` on return even if the heap drained
        early, so back-to-back ``run_until`` calls tile an interval.

        Parameters
        ----------
        end_time:
            Inclusive horizon in seconds; an earlier time or NaN raises
            :class:`SimulationError`.
        max_events:
            Optional safety valve; raises :class:`SimulationError` when
            exceeded (useful against accidental event storms in tests).

        Returns the number of events executed by this call.
        """
        if not (end_time >= self._now):
            raise SimulationError(
                f"cannot run until t={end_time:.9f} before now={self._now:.9f}"
            )
        heap = self._heap
        cancelled = RefState.CANCELLED
        done = RefState.EXECUTED
        executed = 0
        while heap:
            entry = heappop(heap)
            event = entry[3]
            if event.state is cancelled:
                continue
            time = entry[0]
            if time > end_time:
                heappush(heap, entry)  # the earliest entry goes straight back
                break
            self._now = time
            event.state = done
            self._executed += 1
            event.callback()
            executed += 1
            if max_events is not None and executed > max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} before t={end_time}"
                )
        self._now = end_time
        return executed

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event heap is empty.

        Returns the number of events executed.  ``max_events`` bounds the
        run as in :meth:`run_until`.
        """
        executed = 0
        while self.step():
            executed += 1
            if max_events is not None and executed > max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        return executed
