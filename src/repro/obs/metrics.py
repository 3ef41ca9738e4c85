"""Process-local metrics: counters and histograms in a registry.

Every major layer publishes into one process-wide
:class:`MetricsRegistry` (:func:`registry`): :class:`ShardCache
<repro.fleet.cache.ShardCache>` counts hits/misses/stores,
:mod:`repro.kernels.fifo` counts fast-path vs scalar-fallback segments,
:class:`~repro.matchmaking.engine.MatchmakingSimulator` counts
admissions/balks/retries and observes per-epoch occupancy, and
:mod:`repro.facilitynet.pipeline` counts per-hop drops and observes hop
delays.  The registry is *passive* telemetry — metrics read results and
clocks, never random streams, so simulations are bit-identical with or
without anyone looking (pinned by ``tests/test_obs_noninvasive.py``).

Design rules that keep instrumentation ~free:

* metrics are plain attribute bumps on ``__slots__`` objects — no
  locks, no label sets, no string formatting on the hot path;
* :meth:`MetricsRegistry.reset` zeroes values **in place** and never
  replaces metric objects, so modules may cache a counter at import
  time and keep using the same reference across runs;
* the process registry itself is never swapped out — scoped accounting
  (e.g. one cache instance's traffic) uses a private
  :class:`MetricsRegistry` and mirrors into the process one.
"""

from __future__ import annotations

import math
from typing import Dict, Union

import numpy as np

Number = Union[int, float]


class Counter:
    """A monotonically increasing count (resettable to zero)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: Number = 1) -> None:
        """Add ``n`` (negative increments are rejected)."""
        if n < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {n!r}")
        self.value += int(n)

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """Streaming summary of observed values: count/sum/min/max/mean.

    Deliberately bucketless — the artifact layer streams full series to
    disk when detail is wanted; the registry only keeps O(1) state.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.reset()

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values) -> None:
        """Observe an iterable/array of values, in one vector pass.

        Leaves exactly the state :meth:`observe` would, value by value:
        ``total`` is the last entry of a cumulative sum seeded with the
        current total (``np.add.accumulate`` adds sequentially, as the
        loop does), and ``min``/``max`` ignore NaN (the loop's ``<`` and
        ``>`` are false for it) and keep the first-seen of equal values
        (``-0.0`` after ``0.0`` does not replace it).  A non-finite sum
        is redone with Python floats: numpy's ``inf - inf`` NaN has the
        opposite sign bit to Python's.
        """
        if not isinstance(values, np.ndarray):
            values = list(values)
        values = np.asarray(values, dtype=np.float64).ravel()
        if not values.size:
            return
        self.count += int(values.size)
        # Python float addition overflows to inf (and inf - inf gives
        # NaN) without a warning; so does this sum
        with np.errstate(over="ignore", invalid="ignore"):
            totals = np.cumsum(np.concatenate(([self.total], values)))
        total = totals.item(-1)
        if not math.isfinite(total):
            total = self.total
            for value in values.tolist():
                total += value
        self.total = total
        nan = np.isnan(values)
        if nan.any():
            values = values[~nan]
            if not values.size:
                return
        low = values[(values == values.min()).argmax()].item()
        if low < self.min:
            self.min = low
        high = values[(values == values.max()).argmax()].item()
        if high > self.max:
            self.max = high

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def summary(self) -> Dict[str, float]:
        """Plain-dict form (JSON-safe; min/max omitted when empty)."""
        if not self.count:
            return {"count": 0, "total": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:g})"


Metric = Union[Counter, Histogram]


class MetricsRegistry:
    """Name → metric map with get-or-create accessors.

    A name is permanently bound to its first-requested type; asking for
    the same name as a different type is a programming error and raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe totals, sorted by name: counters as numbers,
        histograms as summary dicts."""
        out: Dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.summary()
            else:
                out[name] = metric.value
        return out

    def reset(self) -> None:
        """Zero every metric in place (registrations survive)."""
        for metric in self._metrics.values():
            metric.reset()

    def dump_state(self) -> Dict[str, Dict[str, object]]:
        """Typed, JSON-safe values of every *touched* counter.

        The worker side of distributed telemetry: a subprocess resets
        its registry, runs one task, and ships this dump back with the
        result so the parent can :meth:`merge_state` it.  Only counters
        travel: no sharded task observes a histogram.
        """
        return {
            name: {"kind": "counter", "value": metric.value}
            for name, metric in sorted(self._metrics.items())
            if isinstance(metric, Counter) and metric.value
        }

    def merge_state(self, state: Dict[str, Dict[str, object]]) -> None:
        """Fold a :meth:`dump_state` dump into this registry (counters add)."""
        for name, entry in state.items():
            kind = entry.get("kind")
            if kind != "counter":
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
            self.counter(name).inc(entry["value"])


#: The process-wide registry every subsystem publishes into.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry (never replaced, only reset)."""
    return _REGISTRY


def reset_metrics() -> None:
    """Zero the process registry (e.g. at the start of a traced run)."""
    _REGISTRY.reset()
