"""Rate-limited logo/map download model.

Section II: "the game server supports the upload and download of
customized logos ... and downloads of entire maps ... In order to prevent
the server from becoming overwhelmed by concurrent downloads, these
downloads are rate-limited at the server."

Downloads happen when a player joins (and at map changes for decal
resync).  The server enforces a global token-bucket byte budget, so
concurrent joiners share the configured rate.  The packet generator asks
this module for the chunk schedule of each download.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.gameserver.config import ServerProfile
from repro.sim.random import sample_lognormal


class TokenBucket:
    """A classic token bucket used as the server's download rate limiter.

    Tokens are bytes; the bucket refills at ``rate`` bytes/second up to
    ``capacity``.  ``earliest_send`` answers "when may this chunk go?",
    which is how the chunk scheduler spaces packets without a full DES.
    """

    def __init__(self, rate: float, capacity: float) -> None:
        if rate <= 0 or capacity <= 0:
            raise ValueError("rate and capacity must be positive")
        self.rate = float(rate)
        self.capacity = float(capacity)
        self._tokens = float(capacity)
        self._last_update = 0.0

    def _refill(self, now: float) -> None:
        if now < self._last_update:
            raise ValueError(
                f"time went backwards: {now!r} < {self._last_update!r}"
            )
        self._tokens = min(
            self.capacity, self._tokens + (now - self._last_update) * self.rate
        )
        self._last_update = now

    @property
    def last_update(self) -> float:
        """Time of the last refill; the bucket cannot be asked about earlier."""
        return self._last_update

    def earliest_send(self, now: float, size: float) -> float:
        """Earliest time >= now at which ``size`` bytes may be sent.

        Does not consume — call :meth:`consume` at the returned time.
        """
        if size > self.capacity:
            raise ValueError(f"chunk of {size} exceeds bucket capacity {self.capacity}")
        self._refill(now)
        if self._tokens >= size:
            return now
        deficit = size - self._tokens
        return now + deficit / self.rate

    def consume(self, now: float, size: float) -> None:
        """Spend ``size`` tokens at time ``now`` (must be affordable)."""
        self._refill(now)
        # tolerance scaled to the chunk size: earliest_send computes the
        # affordable instant in floating point, so refilling at exactly
        # that instant can land a hair short of ``size``
        if size > self._tokens + 1e-6 * max(1.0, size):
            raise ValueError(
                f"cannot consume {size} tokens at t={now}: only {self._tokens:.1f}"
            )
        self._tokens = max(0.0, self._tokens - size)


@dataclass(frozen=True)
class DownloadTransfer:
    """One rate-limited transfer: server→client chunks plus client ACKs."""

    start: float
    chunk_times: Tuple[float, ...]
    chunk_sizes: Tuple[int, ...]
    ack_times: Tuple[float, ...]
    ack_size: int = 32


class DownloadScheduler:
    """Plans download transfers against the shared server rate limit."""

    def __init__(self, profile: ServerProfile) -> None:
        self.profile = profile
        self.bucket = TokenBucket(
            rate=profile.download_rate_limit,
            capacity=max(profile.download_rate_limit, 4 * profile.download_chunk_payload),
        )

    def plan_transfer(
        self, rng: np.random.Generator, start: float
    ) -> DownloadTransfer:
        """Plan one download beginning no earlier than ``start``.

        Chunks are spaced by the token bucket; every fourth chunk elicits
        a small client acknowledgement, approximating the engine's
        stop-and-wait fragment protocol.  The limiter serves downloads in
        request order: one requested while an earlier one is still being
        sent starts no earlier than that one's last chunk.
        """
        total = max(
            self.profile.download_chunk_payload,
            float(
                sample_lognormal(
                    rng,
                    self.profile.download_size_mean,
                    self.profile.download_size_cv,
                )
            ),
        )
        chunk = self.profile.download_chunk_payload
        nchunks = max(1, int(np.ceil(total / chunk)))
        times: List[float] = []
        sizes: List[int] = []
        acks: List[float] = []
        cursor = max(start, self.bucket.last_update)
        remaining = total
        for i in range(nchunks):
            size = int(min(chunk, remaining))
            remaining -= size
            when = self.bucket.earliest_send(cursor, size)
            self.bucket.consume(when, size)
            times.append(when)
            sizes.append(size)
            cursor = when
            if i % 4 == 3:
                acks.append(when + 0.02)
        return DownloadTransfer(
            start=start,
            chunk_times=tuple(times),
            chunk_sizes=tuple(sizes),
            ack_times=tuple(acks),
        )
