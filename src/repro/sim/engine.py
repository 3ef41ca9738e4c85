"""Binary-heap discrete-event scheduler.

The scheduler is the single source of simulated time for every model in
the repository.  Usage pattern::

    sched = EventScheduler()
    sched.schedule(0.050, tick)           # absolute time
    sched.schedule_in(0.020, on_packet)   # relative to now
    sched.run_until(3600.0)

Callbacks may schedule further events (including at the current time).
Events at equal timestamps run in deterministic ``(priority, insertion)``
order: the heap holds ``(time, priority, seq, event)`` tuples, and ``seq``
is unique, so comparisons never reach the event and run in C.  Time never
goes backwards: scheduling into the past raises :class:`SimulationError`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import Event, EventState


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling into the past)."""


class EventScheduler:
    """A minimal, deterministic discrete-event simulation engine.

    Parameters
    ----------
    start_time:
        Initial simulation clock value in seconds (default 0.0).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Tuple[float, int, int, Event]] = []
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
        pending = EventState.PENDING
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
    ) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``.

        Returns the :class:`Event` handle, which can be cancelled.
        Scheduling exactly at the current time is allowed (the event runs
        before time advances); scheduling strictly in the past raises.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.9f} before now={self._now:.9f}"
            )
        seq = self._seq
        event = Event(time, seq, callback, priority=priority, label=label)
        self._seq = seq + 1
        heappush(self._heap, (event.time, priority, seq, event))
        return event

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], Any],
        priority: int = 0,
        label: Optional[str] = None,
    ) -> Event:
        """Schedule ``callback`` after ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule(self._now + delay, callback, priority=priority, label=label)

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
                    state["event"].time + interval, fire, priority=priority, label=label
                )

        state["event"] = self.schedule(first, fire, priority=priority, label=label)

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
            if event.state is EventState.CANCELLED:
                continue
            self._now = event.time
            event.state = EventState.EXECUTED
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
            Inclusive horizon in seconds.
        max_events:
            Optional safety valve; raises :class:`SimulationError` when
            exceeded (useful against accidental event storms in tests).

        Returns the number of events executed by this call.
        """
        if end_time < self._now:
            raise SimulationError(
                f"cannot run until t={end_time:.9f} before now={self._now:.9f}"
            )
        heap = self._heap
        cancelled = EventState.CANCELLED
        done = EventState.EXECUTED
        executed = 0
        while heap:
            time, _, _, event = heap[0]
            if event.state is cancelled:
                heappop(heap)
                continue
            if time > end_time:
                break
            heappop(heap)
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
