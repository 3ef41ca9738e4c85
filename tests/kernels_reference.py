"""Test oracle: the FIFO and tail-drop kernels, one numpy scalar at a time.

:mod:`repro.kernels` runs its per-packet recursions over plain Python
lists and writes fates and departures back once per span.  This module
keeps the loops they must reproduce in their original form: index the
input arrays packet by packet, convert each element with ``float()``,
and write each fate and departure into the output arrays as it is
decided.  The float expressions are the kernels' own, so the parity
suite (``tests/test_kernels_reference.py``) compares every output bit
for bit.  It only needs to be obviously correct, not fast.

``tests/`` is not a package: test modules import this file by name (the
test directory is on ``sys.path`` under pytest).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import FreezePolicy


def reference_fifo(
    timestamps: np.ndarray,
    service_times: np.ndarray,
    primary_mask: Optional[np.ndarray],
    primary_queue: int,
    secondary_queue: int,
    blackouts: Sequence[Tuple[float, float]],
    freeze: Optional[FreezePolicy],
    fates: np.ndarray,
    departures: np.ndarray,
) -> List[Tuple[float, float]]:
    """Per-packet two-class FIFO loop; mutates ``fates``/``departures``."""
    n = int(np.asarray(timestamps).size)
    all_primary = primary_mask is None
    blackout_index = 0
    freeze_windows: List[Tuple[float, float]] = []
    freeze_until = -1.0
    recent_drops: Deque[float] = deque()

    engine_free = float(timestamps[0])
    primary_backlog: Deque[float] = deque()
    secondary_backlog: Deque[float] = deque()

    for i in range(n):
        now = float(timestamps[i])
        is_primary = all_primary or bool(primary_mask[i])

        while primary_backlog and primary_backlog[0] <= now:
            primary_backlog.popleft()
        while secondary_backlog and secondary_backlog[0] <= now:
            secondary_backlog.popleft()

        if not is_primary and now < freeze_until:
            fates[i] = -1
            continue

        if is_primary:
            while (
                blackout_index < len(blackouts)
                and blackouts[blackout_index][1] <= now
            ):
                blackout_index += 1
            in_blackout = (
                blackout_index < len(blackouts)
                and blackouts[blackout_index][0] <= now
            )
            if in_blackout or len(primary_backlog) >= primary_queue:
                fates[i] = 0
                if freeze is not None:
                    recent_drops.append(now)
                    cutoff = now - freeze.window
                    while recent_drops and recent_drops[0] < cutoff:
                        recent_drops.popleft()
                    if (
                        len(recent_drops) >= freeze.threshold
                        and now + freeze.lag >= freeze_until
                    ):
                        freeze_start = now + freeze.lag
                        freeze_until = freeze_start + freeze.duration
                        freeze_windows.append((freeze_start, freeze_until))
                        recent_drops.clear()
                continue
        else:
            if len(secondary_backlog) >= secondary_queue:
                fates[i] = 0
                continue

        start_service = max(now, engine_free)
        finish = start_service + float(service_times[i])
        engine_free = finish
        departures[i] = finish
        if is_primary:
            primary_backlog.append(finish)
        else:
            secondary_backlog.append(finish)

    return freeze_windows


def reference_span(
    timestamps: np.ndarray,
    service_times: np.ndarray,
    queue: int,
    fates: np.ndarray,
    departures: np.ndarray,
    start: int,
    end: int,
    engine_free: float,
    backlog: Deque[float],
) -> Tuple[float, Deque[float]]:
    """Single-class FIFO loop over ``[start, end)`` from explicit queue state."""
    for i in range(start, end):
        now = float(timestamps[i])
        while backlog and backlog[0] <= now:
            backlog.popleft()
        if len(backlog) >= queue:
            fates[i] = 0
            continue
        start_service = max(now, engine_free)
        finish = start_service + float(service_times[i])
        engine_free = finish
        departures[i] = finish
        backlog.append(finish)
    return engine_free, backlog


def reference_tail_drop(
    timestamps: np.ndarray,
    sizes: np.ndarray,
    rate: float,
    buffer_bytes: float,
    fates: np.ndarray,
    departures: np.ndarray,
    start: int,
    end: int,
    backlog: float,
    last_time: float,
) -> Tuple[float, float]:
    """Byte-buffered tail-drop loop over ``[start, end)`` (``rate`` in B/s)."""
    for i in range(start, end):
        now = float(timestamps[i])
        backlog = max(0.0, backlog - rate * (now - last_time))
        last_time = now
        if backlog + float(sizes[i]) > buffer_bytes:
            fates[i] = 0
            continue
        backlog += float(sizes[i])
        departures[i] = now + backlog / rate
    return backlog, last_time


def reference_tail_drop_link(
    timestamps: np.ndarray, wire_sizes: np.ndarray, rate_bps: float, buffer_bytes: float
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`repro.kernels.tail_drop_link` as one scalar pass."""
    timestamps = np.asarray(timestamps, dtype=np.float64)
    sizes = np.asarray(wire_sizes, dtype=np.float64)
    n = timestamps.size
    fates = np.ones(n, dtype=np.int8)
    departures = np.full(n, np.nan)
    if n:
        reference_tail_drop(
            timestamps, sizes, rate_bps / 8.0, buffer_bytes, fates, departures,
            0, n, 0.0, float(timestamps[0]),
        )
    return fates, departures
