"""Binary-heap discrete-event scheduler.

The scheduler is the single source of simulated time for every model in
the repository.  Usage pattern::

    sched = EventScheduler()
    sched.schedule(0.050, tick)           # absolute time, cancellable handle
    sched.call_in(0.020, on_packet)       # relative to now, fire-and-forget
    sched.run_until(3600.0)

Callbacks may schedule further events (including at the current time).
Events at equal timestamps run in deterministic ``(priority, insertion)``
order: the heap holds ``(time, priority, seq, callback)`` tuples, and
``seq`` is unique, so comparisons never reach the callback and run in C.
Fire-and-forget events (:meth:`~EventScheduler.call_at`,
:meth:`~EventScheduler.call_in`) put the bare callback in the entry; the
cancellable ones (:meth:`~EventScheduler.schedule`,
:meth:`~EventScheduler.schedule_periodic`) put an
:class:`~repro.sim.events.Event` handle there, which runs its callback
when called unless it was cancelled.  Both kinds draw ``seq``
from one counter, so they interleave exactly as if every event had a
handle.  Time never goes backwards: scheduling into the past (or at NaN,
which compares false with every time) raises :class:`SimulationError`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import Event, EventState

_PENDING = EventState.PENDING


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling into the past)."""


class EventScheduler:
    """A minimal, deterministic discrete-event simulation engine.

    Parameters
    ----------
    start_time:
        Initial simulation clock value in seconds (default 0.0).

    Attributes
    ----------
    now:
        Current simulation time in seconds, always a Python ``float``.
        A plain attribute so the per-packet callbacks read it without a
        call; only :meth:`run_until` advances it.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self._heap: List[Tuple[float, int, int, Callable[[], Any]]] = []
        self._next_seq = count().__next__
        self._executed = 0

    @property
    def executed_count(self) -> int:
        """Total number of callbacks executed so far."""
        return self._executed

    # ------------------------------------------------------------------
    # fire-and-forget events
    # ------------------------------------------------------------------
    def call_at(
        self, time: float, callback: Callable[[], Any], priority: int = 0
    ) -> None:
        """Run ``callback`` at absolute simulation ``time``; no handle.

        The same ordering and checks as :meth:`schedule`, for callers that
        never cancel.
        """
        if not (time >= self.now):
            self._refuse_time(time)
        heappush(self._heap, (float(time), priority, self._next_seq(), callback))

    def call_in(
        self, delay: float, callback: Callable[[], Any], priority: int = 0
    ) -> None:
        """Run ``callback`` ``delay`` seconds from now; no handle."""
        if not (delay >= 0):
            self._refuse_delay(delay)
        heappush(
            self._heap,
            (float(self.now + delay), priority, self._next_seq(), callback),
        )

    # ------------------------------------------------------------------
    # cancellable events
    # ------------------------------------------------------------------
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
        before time advances); scheduling strictly in the past, or at NaN,
        raises.
        """
        if not (time >= self.now):
            self._refuse_time(time)
        event = Event(time, self._next_seq(), callback, priority, label, self)
        heappush(self._heap, (event.time, priority, event.seq, event))
        return event

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
        stopped = False

        def fire() -> None:
            nonlocal handle
            callback()
            if not stopped:
                handle = self.schedule(handle.time + interval, fire, priority, label)

        handle = self.schedule(
            self.now + interval if start is None else start, fire, priority, label
        )

        def stop() -> None:
            nonlocal stopped
            stopped = True
            handle.cancel()

        return stop

    def _refuse_time(self, time: float) -> None:
        raise SimulationError(
            f"cannot schedule at t={time:.9f} before now={self.now:.9f}"
        )

    def _refuse_delay(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        self._refuse_time(self.now + delay)  # NaN

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

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
        if not (end_time >= self.now):
            raise SimulationError(
                f"cannot run until t={end_time:.9f} before now={self.now:.9f}"
            )
        heap = self._heap
        start = self._executed
        limit = None if max_events is None else start + max_events
        # every popped entry counts as executed up front; a cancelled
        # handle takes its count back when called (Event.__call__), so a
        # bare callback costs the loop no check at all
        while heap:
            time, priority, seq, callback = heappop(heap)
            if time > end_time:
                heappush(heap, (time, priority, seq, callback))
                break
            self.now = time
            self._executed += 1
            callback()
            if limit is not None and self._executed > limit:
                raise SimulationError(
                    f"exceeded max_events={max_events} before t={end_time}"
                )
        self.now = float(end_time)
        return self._executed - start
