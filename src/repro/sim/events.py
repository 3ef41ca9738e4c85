"""Event objects used by the discrete-event scheduler.

An :class:`Event` is a cancellable handle to a callback scheduled at a
simulated timestamp.  The scheduler orders events by ``(time, priority,
seq)`` (its heap entries carry that key), so simultaneous events run in a
deterministic order: first by explicit priority, then by scheduling order.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional


class EventState(enum.Enum):
    """Lifecycle of a scheduled event."""

    PENDING = "pending"
    EXECUTED = "executed"
    CANCELLED = "cancelled"


class Event:
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
        self.state = EventState.PENDING

    def cancel(self) -> bool:
        """Cancel a pending event.

        Returns ``True`` if the event was pending and is now cancelled,
        ``False`` if it had already executed or been cancelled.  Cancelled
        events stay in the heap and are skipped lazily when popped, which
        keeps cancellation O(1).
        """
        if self.state is not EventState.PENDING:
            return False
        self.state = EventState.CANCELLED
        return True

    @property
    def pending(self) -> bool:
        """Whether the event is still waiting to fire."""
        return self.state is EventState.PENDING

    @property
    def cancelled(self) -> bool:
        """Whether the event was cancelled before firing."""
        return self.state is EventState.CANCELLED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.label!r}" if self.label else ""
        return f"<Event t={self.time:.6f}{tag} {self.state.value}>"
