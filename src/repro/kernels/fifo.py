"""The pps-bound store-and-forward FIFO kernel.

One lookup engine serves a time-sorted packet stream in arrival order;
each class has its own finite buffer counted in packets (a packet
occupies its buffer until its service completes).  The kernel was
generalised out of :mod:`repro.router.device` and now also drives every
facility rack/core switch (:mod:`repro.facilitynet.hops`).

Two implementations share the contract:

* :func:`_scalar_fifo` — the authoritative per-packet loop, supporting
  two classes, blackout windows on the primary class and the starvation
  ("freeze") policy coupling primary drops to secondary output.  It can
  run a span of rows from an explicit :class:`_FifoState` and leave the
  state for the next span;
* :func:`_vectorized_fifo` — a numpy idle-period block decomposition:
  the arrival stream is segmented at points where the engine provably
  drains, and the no-drop Lindley recursion is evaluated per busy
  period with vectorised sequential sums.  Scans over that no-drop run
  then find the busy periods where it is wrong — a class's buffer would
  overflow, a primary arrival falls in a blackout — and only those
  rerun a scalar loop, from their first such row on: every packet
  before it is forwarded, so the no-drop finishes already there are
  exact.  A plain single-class stream reruns on :func:`_scalar_span`
  (O(1) buffer test); anything else on :func:`_scalar_fifo`, carried on
  while a freeze it triggered still suppresses secondary packets.  Its
  fates, departures and freeze windows are bit-identical to the scalar
  kernel (pinned by ``tests/test_kernels_fifo.py`` and
  ``tests/test_kernels_reference.py``).

:func:`fifo_forward` takes the fast path for every sorted stream with
non-negative service times, and the scalar loop for any other.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

#: Busy periods at least this long use one sequential ``np.cumsum`` each;
#: shorter ones are advanced together, one packet rank per round.
_LONG_SEGMENT = 128


class _FifoCounters:
    """Dispatch/segment accounting, published into the process metrics
    registry (``repro.obs``).

    The binding is lazy: ``repro.kernels`` must stay importable with no
    ``repro.*`` dependencies (the package-level import-cycle pin), so
    the registry is looked up at the first kernel call, not at import.
    Counter objects are then cached — registry resets zero them in
    place — so the hot path pays one integer add per call, and never
    touches RNG state (bit-identity preserved).
    """

    __slots__ = (
        "packets",
        "fast_path_calls",
        "scalar_calls",
        "fast_segments",
        "scalar_fallback_segments",
    )

    def __init__(self) -> None:
        from repro.obs.metrics import registry

        for field in self.__slots__:
            setattr(self, field, registry().counter(f"kernels.fifo.{field}"))


_COUNTERS: Optional[_FifoCounters] = None


def _counters() -> _FifoCounters:
    global _COUNTERS
    if _COUNTERS is None:
        _COUNTERS = _FifoCounters()
    return _COUNTERS


@dataclass(frozen=True)
class FreezePolicy:
    """Starvation coupling between primary-class drops and secondary output.

    When ``threshold`` primary drops land within ``window`` seconds, a
    freeze is recorded as the window ``(trigger + lag, trigger + lag +
    duration)``: the paper's Fig 15 game-freeze mechanism, kept here so
    the kernel can reproduce :mod:`repro.router.device` exactly.  The
    secondary source is suppressed from the triggering drop itself up to
    the window's end (a secondary arrival is suppressed whenever it lies
    before the current ``freeze_until``), so suppression starts ``lag``
    seconds before the recorded window opens.  A new freeze needs its
    window to start at or after the current one's end.
    """

    threshold: int
    window: float
    duration: float
    lag: float

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError(f"freeze threshold must be >= 1: {self.threshold!r}")
        if self.window < 0 or self.duration < 0 or self.lag < 0:
            raise ValueError("freeze window/duration/lag must be >= 0")


@dataclass
class KernelResult:
    """Raw outcome of one :func:`fifo_forward` pass.

    ``fates`` has one entry per input packet: 1 forwarded, 0 dropped,
    -1 suppressed (secondary packet inside a freeze window).
    ``departures`` holds egress timestamps for forwarded packets, NaN
    otherwise.
    """

    fates: np.ndarray
    departures: np.ndarray
    freeze_windows: List[Tuple[float, float]]


def fifo_forward(
    timestamps: np.ndarray,
    service_times: np.ndarray,
    primary_mask: Optional[np.ndarray] = None,
    primary_queue: int = 1,
    secondary_queue: int = 1,
    blackouts: Sequence[Tuple[float, float]] = (),
    freeze: Optional[FreezePolicy] = None,
) -> KernelResult:
    """Run the store-and-forward FIFO kernel over a time-sorted stream.

    One lookup engine serves all packets in arrival order; each class
    has its own finite buffer counted in packets (a packet occupies its
    buffer until its service completes).  ``primary_mask`` selects the
    class subject to ``blackouts`` (arrivals inside a blackout window
    are dropped) and whose drops feed the optional ``freeze`` policy;
    ``None`` treats every packet as primary — a plain single-queue
    pps-bound hop.  Every sorted stream with non-negative service times
    dispatches to the vectorised idle-period fast path, bit-identical to
    the scalar loop; any other stream runs the scalar loop.
    """
    n = int(np.asarray(timestamps).size)
    fates = np.ones(n, dtype=np.int8)
    departures = np.full(n, np.nan)
    if n == 0:
        return KernelResult(fates, departures, [])
    counters = _counters()
    counters.packets.inc(n)
    if primary_queue < 1 or secondary_queue < 1:
        raise ValueError("queue capacities must be >= 1")

    t = np.ascontiguousarray(timestamps, dtype=np.float64)
    s = np.ascontiguousarray(service_times, dtype=np.float64)
    mask = None if primary_mask is None else np.asarray(primary_mask, dtype=bool)
    # the fast path assumes a sorted stream and sane services; any
    # violation (or NaN) falls back to the authoritative loop
    if (
        s.size == n
        and (mask is None or mask.shape == (n,))
        and bool(np.all(s >= 0.0))
        and bool(np.all(t[1:] >= t[:-1]))
    ):
        counters.fast_path_calls.inc()
        freeze_windows = _vectorized_fifo(
            t, s, mask, primary_queue, secondary_queue, blackouts, freeze,
            fates, departures,
        )
        return KernelResult(fates, departures, freeze_windows)

    counters.scalar_calls.inc()
    freeze_windows = _scalar_fifo(
        t,
        service_times,
        primary_mask,
        primary_queue,
        secondary_queue,
        blackouts,
        freeze,
        fates,
        departures,
    )
    return KernelResult(fates, departures, freeze_windows)


# ----------------------------------------------------------------------
# authoritative scalar kernel
# ----------------------------------------------------------------------
class _FifoState:
    """The two-class loop's queue state between two rows.

    ``primary_backlog``/``secondary_backlog`` hold the service
    completion times of packets waiting or in service (packets whose
    completion is at or before the next arrival have left the buffer);
    ``blackout_index`` is the loop's pointer into the blackout windows;
    ``recent_drops`` are the primary drop times the freeze policy still
    counts, and ``freeze_windows`` every freeze recorded so far.
    """

    __slots__ = (
        "engine_free",
        "primary_backlog",
        "secondary_backlog",
        "blackout_index",
        "freeze_until",
        "recent_drops",
        "freeze_windows",
    )

    def __init__(self, engine_free: float) -> None:
        self.engine_free = engine_free
        self.primary_backlog: Deque[float] = deque()
        self.secondary_backlog: Deque[float] = deque()
        self.blackout_index = 0
        self.freeze_until = -1.0
        self.recent_drops: Deque[float] = deque()
        self.freeze_windows: List[Tuple[float, float]] = []


def _scalar_fifo(
    timestamps: np.ndarray,
    service_times: np.ndarray,
    primary_mask: Optional[np.ndarray],
    primary_queue: int,
    secondary_queue: int,
    blackouts: Sequence[Tuple[float, float]],
    freeze: Optional[FreezePolicy],
    fates: np.ndarray,
    departures: np.ndarray,
    start: int = 0,
    end: Optional[int] = None,
    state: Optional[_FifoState] = None,
) -> List[Tuple[float, float]]:
    """Per-packet reference loop over rows ``[start, end)``.

    Writes every entry of ``fates``/``departures`` in the span and
    returns the freeze windows recorded so far.  With no ``state`` the
    loop starts from an idle device at the first row; the fast path
    passes its own :class:`_FifoState`, which the loop reads on entry
    and leaves as it stands after row ``end - 1``, so a later call can
    resume from it.

    The loop reads Python floats from ``tolist()`` copies of the span
    (the values ``float(timestamps[i])`` would give) and writes the
    outputs back in one assignment each, after the loop.
    """
    timestamps = np.asarray(timestamps, dtype=np.float64)
    if end is None:
        end = timestamps.size
    if state is None:
        state = _FifoState(float(timestamps[0]))
    if start >= end:
        return state.freeze_windows
    times = timestamps[start:end].tolist()
    services = np.asarray(service_times, dtype=np.float64)[start:end].tolist()
    primary = (
        None if primary_mask is None
        else np.asarray(primary_mask, dtype=bool)[start:end].tolist()
    )
    fate = [1] * len(times)
    depart = [math.nan] * len(times)
    blackout_index = state.blackout_index
    n_blackouts = len(blackouts)
    freeze_windows = state.freeze_windows
    freeze_until = state.freeze_until
    recent_drops = state.recent_drops
    engine_free = state.engine_free
    primary_backlog = state.primary_backlog
    secondary_backlog = state.secondary_backlog

    for i, now in enumerate(times):
        is_primary = primary is None or primary[i]

        # expire finished packets from both buffers
        while primary_backlog and primary_backlog[0] <= now:
            primary_backlog.popleft()
        while secondary_backlog and secondary_backlog[0] <= now:
            secondary_backlog.popleft()

        # secondary source frozen: the packet was never generated.  The
        # test is against `freeze_until` alone, so suppression starts at
        # the triggering drop, `lag` before the recorded window opens.
        if not is_primary and now < freeze_until:
            fate[i] = -1
            continue

        if is_primary:
            # advance past finished blackout windows
            while (
                blackout_index < n_blackouts
                and blackouts[blackout_index][1] <= now
            ):
                blackout_index += 1
            in_blackout = (
                blackout_index < n_blackouts
                and blackouts[blackout_index][0] <= now
            )
            if in_blackout or len(primary_backlog) >= primary_queue:
                fate[i] = 0
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
                fate[i] = 0
                continue

        start_service = max(now, engine_free)
        finish = start_service + services[i]
        engine_free = finish
        depart[i] = finish
        if is_primary:
            primary_backlog.append(finish)
        else:
            secondary_backlog.append(finish)

    state.engine_free = engine_free
    state.blackout_index = blackout_index
    state.freeze_until = freeze_until
    fates[start:end] = fate
    departures[start:end] = depart
    return freeze_windows


def _scalar_span(
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
    """Single-class scalar recursion over ``[start, end)``.

    The drop-handling fallback of the vectorised fast path: identical
    float arithmetic to :func:`_scalar_fifo` with ``primary_mask=None``,
    seeded with explicit queue state so it can resume mid-stream.  It
    iterates ``tolist()`` copies of the span and writes all fates and
    departures of ``[start, end)`` back once, after the loop; rows
    outside the span are not touched.

    The buffer test is O(1): with sorted arrivals, non-negative service
    times, and a ``backlog``/``engine_free`` state the loop itself could
    reach (the fast path passes no other), admitted finish times never
    decrease, so the packets still in the buffer at ``now`` — those
    finishing after it — are a suffix of the admitted finishes, and the
    buffer is full exactly when the ``queue``-th last of them is past
    ``now``.  A ring of the last ``queue`` finishes answers that with one
    comparison, without expiring anything per packet, in O(``queue``)
    memory.  The returned backlog is cut back to what
    :func:`_scalar_fifo`'s deque holds after the span's last arrival:
    the finishes past it, plus the last packet's own finish when it was
    admitted, even if that equals the arrival time.
    """
    if start >= end:
        return engine_free, backlog
    times = timestamps[start:end].tolist()
    services = service_times[start:end].tolist()
    fate = [1] * len(times)
    depart = [math.nan] * len(times)
    # oldest slot at `pos`; -inf marks a slot not yet written.  A span
    # that cannot fill `queue` slots gets one more slot than it can
    # write, so its ring never wraps and never reports a full buffer.
    size = min(queue, len(backlog) + len(times) + 1)
    held = list(backlog)[-size:]
    ring = [-math.inf] * (size - len(held)) + held
    pos = 0
    for k, now in enumerate(times):
        if ring[pos] > now:
            fate[k] = 0
            continue
        if now > engine_free:
            engine_free = now
        engine_free += services[k]
        depart[k] = engine_free
        ring[pos] = engine_free
        pos += 1
        if pos == size:
            pos = 0
    fates[start:end] = fate
    departures[start:end] = depart
    finishes = ring[pos:] + ring[:pos]  # oldest first
    last = len(finishes) - 1 if fate[-1] else len(finishes)
    return engine_free, deque(finishes[bisect_right(finishes, times[-1], 0, last):])


# ----------------------------------------------------------------------
# vectorised idle-period block decomposition
# ----------------------------------------------------------------------
def _exact_busy_finishes(
    t: np.ndarray,
    s: np.ndarray,
    starts: np.ndarray,
    bounds: np.ndarray,
) -> np.ndarray:
    """No-drop finish times with the scalar loop's exact float rounding.

    Within a busy period the scalar recursion is a left-to-right sum
    ``F[i] = F[i-1] + s[i]`` seeded with ``t[a] + s[a]``; ``np.cumsum``
    (ufunc ``accumulate``) performs exactly those additions.  Long busy
    periods get one ``cumsum`` each; the (typically many) short ones are
    advanced together, one packet rank per round, so the Python-level
    work is O(long segments + max short length), not O(busy periods).
    """
    n = t.size
    finishes = np.empty(n)
    finishes[starts] = t[starts] + s[starts]
    seg_len = np.diff(bounds)

    long_segments = np.flatnonzero(seg_len >= _LONG_SEGMENT)
    for j in long_segments:
        a, b = int(bounds[j]), int(bounds[j + 1])
        finishes[a:b] = np.cumsum(
            np.concatenate((finishes[a : a + 1], s[a + 1 : b]))
        )

    short = np.flatnonzero((seg_len > 1) & (seg_len < _LONG_SEGMENT))
    if short.size:
        order = np.argsort(seg_len[short], kind="stable")
        lengths = seg_len[short][order]
        heads = starts[short][order[::-1]]  # longest first
        for rank in range(1, int(lengths[-1])):
            alive = lengths.size - int(
                np.searchsorted(lengths, rank, side="right")
            )
            index = heads[:alive] + rank
            finishes[index] = finishes[index - 1] + s[index]
    return finishes


def _vectorized_fifo(
    t: np.ndarray,
    s: np.ndarray,
    primary_mask: Optional[np.ndarray],
    primary_queue: int,
    secondary_queue: int,
    blackouts: Sequence[Tuple[float, float]],
    freeze: Optional[FreezePolicy],
    fates: np.ndarray,
    departures: np.ndarray,
) -> List[Tuple[float, float]]:
    """Idle-period fast path; returns the freeze windows.

    Mirrors the tail-drop link's fast path one level up: candidate busy
    periods come from the closed-form no-drop workload, exact finish
    times are recomputed per busy period with the scalar loop's own
    addition order, and only the busy periods where the no-drop run
    would drop or suppress a packet rerun a scalar loop, from the first
    such row on.  All float comparisons below are exact, so every
    output bit matches :func:`_scalar_fifo`.
    """
    n = t.size
    # closed-form no-drop finishes (different summation order than the
    # scalar loop, so they only *locate* candidate busy periods):
    # F̂[i] = C[i] + max_{j<=i} (t[j] - C[j-1]) with C = cumsum(s)
    cum = np.cumsum(s)
    f_hat = cum + np.maximum.accumulate(t - (cum - s))
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.less_equal(f_hat[:-1], t[1:], out=is_start[1:])
    del cum, f_hat
    starts = np.flatnonzero(is_start)
    bounds = np.append(starts, n)

    finishes = _exact_busy_finishes(t, s, starts, bounds)

    # The decomposition is valid iff, in exact arithmetic, the engine
    # stays busy inside each candidate busy period and drains at each
    # boundary.  The closed form can disagree with the sequential sums
    # by an ulp near razor-thin idle gaps; any disagreement (or a
    # non-monotone finish sequence, which would break the backlog scan's
    # binary search) falls back to the scalar loop outright.
    interior_idle = np.any((~is_start[1:]) & (finishes[:-1] < t[1:]))
    boundary_busy = np.any(finishes[starts[1:] - 1] > t[starts[1:]])
    del is_start
    single_class = primary_mask is None and freeze is None and len(blackouts) == 0
    counters = _counters()
    if (
        interior_idle
        or boundary_busy
        or bool(np.any(np.diff(finishes) < 0.0))
    ):
        counters.scalar_fallback_segments.inc(int(starts.size))
        if single_class:
            _scalar_span(
                t, s, primary_queue, fates, departures, 0, n, float(t[0]), deque()
            )
            return []
        return _scalar_fifo(
            t, s, primary_mask, primary_queue, secondary_queue, blackouts,
            freeze, fates, departures,
        )

    departures[:] = finishes
    if single_class:
        rerun_segments = _single_class_reruns(
            t, s, primary_queue, starts, bounds, finishes, fates, departures
        )
        freeze_windows: List[Tuple[float, float]] = []
    else:
        rerun_segments, freeze_windows = _two_class_reruns(
            t, s, primary_mask, primary_queue, secondary_queue, blackouts,
            freeze, starts, bounds, finishes, fates, departures,
        )
    counters.scalar_fallback_segments.inc(rerun_segments)
    counters.fast_segments.inc(int(starts.size) - rerun_segments)
    return freeze_windows


def _check_drained(
    engine_free: float,
    backlogs: Sequence[Deque[float]],
    start: int,
    end: int,
    t: np.ndarray,
) -> None:
    """Refuse a rerun span that still holds work at busy-period head ``end``.

    With drops (and suppressions) the engine frees no later than the
    no-drop finish (float addition and ``max`` are monotone), and the
    boundaries were validated against those finishes, so a span always
    drains at its boundary and the busy periods after it stand as
    computed.
    """
    if end < t.size:
        boundary = float(t[end])
        busy_until = max([engine_free] + [backlog[-1] for backlog in backlogs if backlog])
        if busy_until > boundary:
            raise RuntimeError(
                f"FIFO rerun of rows [{start}, {end}) still holds work at its "
                f"boundary t={boundary!r}: the busy-period split is invalid"
            )


def _single_class_reruns(
    t: np.ndarray,
    s: np.ndarray,
    queue: int,
    starts: np.ndarray,
    bounds: np.ndarray,
    finishes: np.ndarray,
    fates: np.ndarray,
    departures: np.ndarray,
) -> int:
    """Rerun the overflowing busy periods of a plain single-class stream.

    A cumulative-backlog scan finds them, and each resumes on
    :func:`_scalar_span` at its first overflowing arrival: every packet
    before it is admitted, so the no-drop finishes already written there
    are exact.  Returns the number of busy periods rerun.
    """
    # packets in system when packet i arrives = i minus the admitted
    # packets already departed (finish <= t[i]).  Every earlier busy
    # period has drained, so one global searchsorted counts them.
    # Packets j >= i tied at finish == t[i] can only push the count
    # *past* i (occupancy below 0), never up to `queue`, so the raw
    # difference is safe to compare.  A busy period of length L can back
    # up at most L - 1 packets, so a busy period no longer than the
    # buffer can never overflow: only the rows of longer ones are
    # scanned, and none when no busy period is longer.
    seg_len = np.diff(bounds)
    scanned = np.flatnonzero(np.repeat(seg_len > queue, seg_len))
    overflow = scanned[
        scanned - np.searchsorted(finishes, t[scanned], side="right") >= queue
    ]
    if overflow.size == 0:
        return 0
    overflow_segs = np.searchsorted(starts, overflow, side="right") - 1
    # each dirty busy period's first overflowing row (`overflow` is sorted)
    first = np.empty(overflow.size, dtype=bool)
    first[0] = True
    np.not_equal(overflow_segs[1:], overflow_segs[:-1], out=first[1:])
    for j, o in zip(overflow_segs[first].tolist(), overflow[first].tolist()):
        # Rows before the first overflow `o` admit every packet, so
        # the no-drop finishes (and departures) already written for
        # them are exact: the rerun starts at `o` with the state the
        # scalar loop has there — the engine frees at the previous
        # finish, and the buffer holds the earlier finishes still
        # pending at t[o] (at the first overflow these are exactly the
        # last `queue` finishes, all inside this busy period).
        held = finishes[max(int(bounds[j]), o - queue):o]
        backlog: Deque[float] = deque(held[held > t[o]].tolist())
        b = int(bounds[j + 1])
        # the span rewrites every fate and departure of [o, b)
        engine_free, backlog = _scalar_span(
            t, s, queue, fates, departures, o, b, float(finishes[o - 1]), backlog
        )
        _check_drained(engine_free, (backlog,), o, b, t)
    return int(np.count_nonzero(first))


def _two_class_reruns(
    t: np.ndarray,
    s: np.ndarray,
    primary_mask: Optional[np.ndarray],
    primary_queue: int,
    secondary_queue: int,
    blackouts: Sequence[Tuple[float, float]],
    freeze: Optional[FreezePolicy],
    starts: np.ndarray,
    bounds: np.ndarray,
    finishes: np.ndarray,
    fates: np.ndarray,
    departures: np.ndarray,
) -> Tuple[int, List[Tuple[float, float]]]:
    """Rerun, on :func:`_scalar_fifo`, the rows where classes, blackouts
    or a freeze make the no-drop run wrong.

    A row is *dirty* when the no-drop run would drop it: a primary
    arrival inside a blackout, or an arrival that finds its own side's
    buffer full.  Up to the first dirty row of a busy period every
    packet is forwarded at its no-drop finish, so a rerun starts there
    with the queue state the loop has at that row, and runs to the head
    of the next clean busy period — further, to the first clean one
    that starts at or after ``freeze_until``, while a freeze it
    triggered would still suppress secondary packets.  Drops and
    suppressions only
    remove work, so each span drains at its last boundary; the busy
    periods between spans drop nothing, so the carried drop history,
    freeze and blackout pointer stay the loop's own.  Returns the number
    of busy periods rerun and the freeze windows.
    """
    n = t.size
    primary = np.ones(n, dtype=bool) if primary_mask is None else primary_mask
    dirty = np.zeros(n, dtype=bool)
    # The single-class backlog scan, split by side.  Finishes are
    # monotone, so the packets departed by t[i] are the prefix [0, m),
    # m = searchsorted(finishes, t[i]), and a side's packets in system
    # at arrival i are its rows in [m, i): a difference of the side's
    # running row count.  (Ties m > i only drive the count below 0.)
    # Only busy periods with more of a side's rows than its buffer
    # holds can overflow it, so only their rows are scanned.
    seg_len = np.diff(bounds)
    primary_before = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(primary, out=primary_before[1:])
    primary_rows = np.diff(primary_before[bounds])
    crowded = (primary_rows > primary_queue) | (seg_len - primary_rows > secondary_queue)
    scanned = np.flatnonzero(np.repeat(crowded, seg_len))
    if scanned.size:
        departed = finishes.searchsorted(t[scanned], side="right")
        held_primary = primary_before[scanned] - primary_before[departed]
        dirty[scanned] = np.where(
            primary[scanned],
            held_primary >= primary_queue,
            scanned - departed - held_primary >= secondary_queue,
        )
        del departed, held_primary
    del primary_before, scanned
    if len(blackouts):
        # The loop's pointer rests, at each primary arrival, on the
        # first window whose end is past it (it only moves forward, and
        # every window it passed ended earlier), and the arrival is in a
        # blackout iff that window has started.  Windows may overlap, so
        # the first end past t is found on the running maximum of ends.
        # Such an arrival lies inside that window, so only rows inside
        # some window are tested.
        windows = np.asarray(blackouts, dtype=np.float64).reshape(-1, 2)
        lo = t.searchsorted(windows[:, 0])
        lengths = np.maximum(t.searchsorted(windows[:, 1]) - lo, 0)
        offsets = np.cumsum(lengths) - lengths
        rows = np.arange(int(lengths.sum())) + np.repeat(lo - offsets, lengths)
        rows = rows[primary[rows]]
        arrivals = t[rows]
        pointer = np.maximum.accumulate(windows[:, 1]).searchsorted(
            arrivals, side="right"
        )
        open_ = pointer < windows.shape[0]
        rows, arrivals, pointer = rows[open_], arrivals[open_], pointer[open_]
        dirty[rows[windows[pointer, 0] <= arrivals]] = True
    flagged = np.flatnonzero(dirty)
    del dirty
    flagged_period = starts.searchsorted(flagged, side="right") - 1
    # a span runs on through back-to-back dirty busy periods, to the
    # head of the next clean one (index `starts.size`: the stream's end)
    clean = np.ones(starts.size + 1, dtype=bool)
    clean[flagged_period] = False
    clean_periods = np.flatnonzero(clean)
    del clean

    state = _FifoState(float(t[0]))
    head_times = t[starts]
    # at most `primary_queue` + `secondary_queue` packets are in system
    # before the first dirty row of a busy period
    held_rows = primary_queue + secondary_queue
    rerun_segments = 0
    k = 0
    while k < flagged.size:
        o = int(flagged[k])
        j = int(flagged_period[k])
        head = int(bounds[j])
        lo = max(head, o - held_rows)
        held = finishes[lo:o]
        pending = held > t[o]
        held, held_primary = held[pending], primary[lo:o][pending]
        state.engine_free = float(finishes[o - 1]) if o > head else float(t[o])
        state.primary_backlog = deque(held[held_primary].tolist())
        state.secondary_backlog = deque(held[~held_primary].tolist())
        start, last = o, j
        while True:
            stop = int(clean_periods[clean_periods.searchsorted(last + 1)])
            end = int(bounds[stop])
            _scalar_fifo(
                t, s, primary_mask, primary_queue, secondary_queue, blackouts,
                freeze, fates, departures, start, end, state,
            )
            if end == n or t[end] >= state.freeze_until:
                break
            # the freeze still suppresses secondary rows: carry on
            # through the last busy period that starts before it ends
            start = end
            last = int(head_times.searchsorted(state.freeze_until)) - 1
        _check_drained(
            state.engine_free,
            (state.primary_backlog, state.secondary_backlog),
            o,
            end,
            t,
        )
        rerun_segments += stop - j
        k = int(flagged.searchsorted(end))
    return rerun_segments, state.freeze_windows
