"""The bps-bound tail-drop link kernel.

A byte-buffered FIFO drained at a fixed wire rate — the model of an
oversubscribed Internet uplink.  The workload (Lindley) recursion is
evaluated chunk-wise with a vectorised closed form; only chunks that
may overflow fall back to the scalar recursion.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

#: Chunk length of the vectorised tail-drop fast path.
_LINK_CHUNK = 4096


def _scalar_tail_drop(
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
    """Authoritative per-packet recursion over ``[start, end)``.

    Writes every fate and departure of ``[start, end)`` in place and
    returns the updated ``(backlog, last_time)`` queue state.  The loop
    iterates ``tolist()`` copies of the span and writes the outputs back
    once, after it.  The vectorised fast path of :func:`tail_drop_link`
    evaluates the chunks whose workload stays within the buffer in closed
    form.  It sums in another order, so it agrees with this recursion on
    every fate but only to within 1e-12 relative on departures (they can
    differ by an ulp or so): the contract the parity suite
    (``tests/test_kernels_reference.py``) checks.
    """
    times = timestamps[start:end].tolist()
    fate = [1] * len(times)
    depart = [math.nan] * len(times)
    for k, (now, size) in enumerate(zip(times, sizes[start:end].tolist())):
        # `max(0.0, x)` without the builtin call: the negated test keeps
        # its result for -0.0 and NaN too (both give 0.0)
        backlog -= rate * (now - last_time)
        if not backlog > 0.0:
            backlog = 0.0
        last_time = now
        if backlog + size > buffer_bytes:
            fate[k] = 0
            continue
        backlog += size
        depart[k] = now + backlog / rate
    fates[start:end] = fate
    departures[start:end] = depart
    return backlog, last_time


def tail_drop_link(
    timestamps: np.ndarray,
    wire_sizes: np.ndarray,
    rate_bps: float,
    buffer_bytes: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Push a time-sorted stream through a byte-buffered tail-drop link.

    The link drains its FIFO at ``rate_bps``; an arrival that would push
    the byte backlog (including the packet in service) past
    ``buffer_bytes`` is dropped at the tail.  Returns ``(fates,
    departures)`` with fates 1/0 and NaN departures for drops.

    Chunks whose workload never approaches the buffer are evaluated with
    the vectorised closed-form Lindley recursion (a prefix minimum);
    only chunks that may overflow run the scalar recursion.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate_bps must be positive: {rate_bps!r}")
    if buffer_bytes <= 0:
        raise ValueError(f"buffer_bytes must be positive: {buffer_bytes!r}")
    timestamps = np.asarray(timestamps, dtype=np.float64)
    sizes = np.asarray(wire_sizes, dtype=np.float64)
    n = timestamps.size
    fates = np.ones(n, dtype=np.int8)
    departures = np.full(n, np.nan)
    if n == 0:
        return fates, departures

    rate = rate_bps / 8.0  # bytes per second
    backlog = 0.0
    last_time = float(timestamps[0])
    for start in range(0, n, _LINK_CHUNK):
        end = min(start + _LINK_CHUNK, n)
        t = timestamps[start:end]
        s = sizes[start:end]
        # closed-form workload assuming no drops: the initial backlog is
        # a virtual packet of size `backlog` arriving at `last_time`
        t_ext = np.concatenate(([last_time], t))
        s_ext = np.concatenate(([backlog], s))
        cumulative = np.cumsum(s_ext)
        base = cumulative - s_ext - rate * t_ext
        workload = cumulative - rate * t_ext - np.minimum.accumulate(base)
        if float(workload[1:].max(initial=0.0)) <= buffer_bytes:
            departures[start:end] = t + workload[1:] / rate
            backlog = float(workload[-1])
            last_time = float(t[-1])
            continue
        # potential overflow: authoritative scalar recursion with drops
        backlog, last_time = _scalar_tail_drop(
            timestamps, sizes, rate, buffer_bytes, fates, departures,
            start, end, backlog, last_time,
        )
    return fates, departures
