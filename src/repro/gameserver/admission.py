"""Connection admission control: the server's finite slot table.

The paper's server was configured with "a maximum capacity of 22 players"
and "more than 8000 connections were refused due to the lack of open
slots" — this module is that mechanism, factored out so both the session
process and tests can exercise it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set


class AdmissionError(RuntimeError):
    """Raised on slot-table misuse (double-release, unknown session)."""


@dataclass
class SlotTable:
    """A fixed pool of player slots with occupancy accounting.

    Tracks which session ids currently hold slots, plus lifetime
    acceptance/refusal counters for Table I.
    """

    capacity: int
    occupied: Set[int] = field(default_factory=set)
    accepted_total: int = 0
    refused_total: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity!r}")

    @property
    def is_full(self) -> bool:
        """True when no slot is free."""
        return len(self.occupied) >= self.capacity

    def try_admit(self, session_id: int) -> bool:
        """Attempt to admit ``session_id``; update counters.

        Returns ``True`` (slot granted) or ``False`` (refused — the
        paper's "connection refused due to lack of open slots").
        """
        if session_id in self.occupied:
            raise AdmissionError(f"session {session_id} already admitted")
        if self.is_full:
            self.refused_total += 1
            return False
        self.occupied.add(session_id)
        self.accepted_total += 1
        return True

    def release(self, session_id: int) -> None:
        """Free the slot held by ``session_id``."""
        try:
            self.occupied.remove(session_id)
        except KeyError:
            raise AdmissionError(f"session {session_id} does not hold a slot") from None


@dataclass
class ClientDirectory:
    """Identity pool of distinct clients seen by the server.

    Supports the paper's unique-client statistics: a connection attempt is
    either a brand-new client or a returning one, and Table I reports both
    the attempting and establishing unique populations.
    """

    next_client_id: int = 0
    attempted: Set[int] = field(default_factory=set)
    established: Set[int] = field(default_factory=set)
    sessions_per_client: Dict[int, int] = field(default_factory=dict)
    _attempted_order: list = field(default_factory=list)

    def new_client(self) -> int:
        """Register and return a fresh client id."""
        client_id = self.next_client_id
        self.next_client_id += 1
        return client_id

    def record_attempt(self, client_id: int) -> None:
        """Note that ``client_id`` attempted to connect."""
        if client_id not in self.attempted:
            self.attempted.add(client_id)
            self._attempted_order.append(client_id)

    def record_establishment(self, client_id: int) -> None:
        """Note that ``client_id`` established a session."""
        self.established.add(client_id)
        self.sessions_per_client[client_id] = (
            self.sessions_per_client.get(client_id, 0) + 1
        )

    @property
    def unique_attempting(self) -> int:
        """Distinct clients that ever attempted a connection."""
        return len(self.attempted)

    @property
    def unique_establishing(self) -> int:
        """Distinct clients that ever established a session."""
        return len(self.established)

    def sample_returning(self, rng, exclude: Optional[Set[int]] = None) -> Optional[int]:
        """Pick a previously seen client (uniformly), or None if there are none.

        ``exclude`` removes currently connected clients from the draw so a
        client cannot be connected twice at once.  Sampling is by index
        into first-seen order with bounded rejection of excluded ids —
        O(1) expected, which matters at week-scale attempt counts.
        """
        pool = self._attempted_order
        if not pool:
            return None
        exclude = exclude or set()
        if len(exclude) >= len(pool):
            remaining = [cid for cid in pool if cid not in exclude]
            if not remaining:
                return None
            return remaining[int(rng.integers(0, len(remaining)))]
        for _ in range(64):
            candidate = pool[int(rng.integers(0, len(pool)))]
            if candidate not in exclude:
                return candidate
        remaining = [cid for cid in pool if cid not in exclude]
        if not remaining:
            return None
        return remaining[int(rng.integers(0, len(remaining)))]
