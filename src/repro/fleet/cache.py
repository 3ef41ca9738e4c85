"""Content-addressed disk cache for sharded simulation results.

Per-server simulation is the dominant cost of every facility experiment,
and its tasks are pure functions: a :class:`~repro.fleet.execution.WindowTask`
or :class:`~repro.fleet.execution.SeriesTask` fully determines its result,
whether the server runs its own arrival process (``sessions=None``) or
the session table a matchmaker assigned it.  :class:`ShardCache`
exploits that purity — each task is fingerprinted by a stable canonical
form of its dataclass fields (an assigned table hashes column by
column, so a different placement selects fresh entries), the worker
function's qualified name, and the :data:`repro.kernels.KERNEL_VERSION`
tag, and the pickled result is stored under the fingerprint's SHA-256
digest.  A swept oversubscription ratio or a re-run experiment then
replays per-server windows from disk instead of resimulating them, and
results are bit-identical to a cold run (pickle round-trips float
arrays exactly).

Robustness rules:

* fingerprints are content-addressed — any change to a task field, the
  worker function's qualified name, the package version or the kernel
  version tag selects a different entry.  The fingerprint cannot see
  *unreleased* edits to the simulation source itself, so when iterating
  on simulation code between version bumps, point ``--cache-dir`` at a
  fresh directory;
* a task that cannot be fingerprinted (not a dataclass, or containing a
  value with no stable canonical form, such as an object-dtype array
  whose bytes are element addresses) is simply computed, never cached;
* a corrupt or truncated entry is treated as a miss, deleted, and
  recomputed — a killed run can never poison later ones;
* writes go through a temporary file and ``os.replace``, so concurrent
  runs sharing a cache directory see only complete entries.

A cache is always passed explicitly (``cache=`` on
:func:`~repro.fleet.execution.shard_map_fold` and the layers above it);
``None`` means no cache.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional, Tuple

import numpy as np

import repro
from repro.kernels import KERNEL_VERSION
from repro.obs.metrics import MetricsRegistry, registry as process_metrics

#: Bump on any change to the entry layout or canonicalisation rules.
_FORMAT_VERSION = 2


class UnfingerprintableTask(ValueError):
    """Raised when a task holds a value with no stable canonical form."""


def _canonical(value: Any) -> str:
    """A stable, content-only textual form of ``value``.

    Two values canonicalise identically iff a pure worker function would
    treat them identically; memory addresses and dict ordering never
    leak in.  Raises :class:`UnfingerprintableTask` for values whose
    identity cannot be pinned down (e.g. objects with the default
    ``object.__repr__``).
    """
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return repr(value)
    if isinstance(value, float):
        return repr(value)  # shortest round-trip: exact for float64
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject:  # the bytes are element addresses
            raise UnfingerprintableTask(
                f"no stable canonical form for a {value.dtype} array"
            )
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes())
        return f"ndarray({value.dtype},{value.shape},{digest.hexdigest()})"
    if isinstance(value, np.generic):
        return f"{type(value).__name__}({value!r})"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={_canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, (tuple, list)):
        body = ",".join(_canonical(item) for item in value)
        return f"{type(value).__name__}[{body}]"
    if isinstance(value, (set, frozenset)):
        # iteration order is hash-seed-dependent: sort the element forms
        body = ",".join(sorted(_canonical(item) for item in value))
        return f"{type(value).__name__}{{{body}}}"
    if isinstance(value, (dict,)):
        items = sorted(
            (_canonical(k), _canonical(v)) for k, v in value.items()
        )
        return "dict{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    text = repr(value)
    if " at 0x" in text:  # default object repr: identity, not content
        raise UnfingerprintableTask(
            f"no stable canonical form for {type(value).__name__}"
        )
    return f"{type(value).__name__}<{text}>"


class CacheStats:
    """Counters of one cache's traffic, backed by a metrics registry.

    Reads (``stats.hits``) and in-place bumps (``stats.misses += n``)
    work as on the plain-int dataclass this used to be, but the values
    now live in a private per-cache :class:`~repro.obs.metrics.MetricsRegistry`
    — and every *increment* is mirrored into the process-wide registry
    (``shard_cache.hits`` …), so fleet-wide totals land in trace
    manifests.  ``snapshot()``/``reset()`` scope accounting per run: a
    long-lived cache instance no longer has to accumulate forever.
    """

    _FIELDS = ("hits", "misses", "stores", "invalid")

    __slots__ = ("metrics",)

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        for field in self._FIELDS:
            self.metrics.counter(f"cache.{field}")

    def _get(self, field: str) -> int:
        return self.metrics.counter(f"cache.{field}").value

    def _set(self, field: str, value: int) -> None:
        counter = self.metrics.counter(f"cache.{field}")
        delta = int(value) - counter.value
        counter.inc(delta)  # rejects decrements: counts only go up
        process_metrics().counter(f"shard_cache.{field}").inc(delta)

    hits = property(
        lambda self: self._get("hits"),
        lambda self, value: self._set("hits", value),
        doc="Entries served from disk.",
    )
    misses = property(
        lambda self: self._get("misses"),
        lambda self, value: self._set("misses", value),
        doc="Lookups that had to compute.",
    )
    stores = property(
        lambda self: self._get("stores"),
        lambda self, value: self._set("stores", value),
        doc="Entries persisted this run.",
    )
    invalid = property(
        lambda self: self._get("invalid"),
        lambda self, value: self._set("invalid", value),
        doc="Corrupt/truncated entries discarded and recomputed.",
    )

    def reset(self) -> None:
        """Zero this cache's counters (the process-wide mirror keeps
        its totals — it aggregates every cache in the process)."""
        self.metrics.reset()

    def render(self) -> str:
        """One status line, e.g. ``8 hits, 0 misses (8 entries reused)``."""
        parts = f"{self.hits} hits, {self.misses} misses, {self.stores} stored"
        if self.invalid:
            parts += f", {self.invalid} corrupt entries discarded"
        return parts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheStats({self.render()})"


class ShardCache:
    """Content-addressed pickle store under one root directory."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    def task_key(self, fn: Callable, task: Any) -> Optional[str]:
        """Fingerprint of ``fn(task)``; ``None`` if the task is uncacheable.

        The key covers the worker's qualified name, the package version,
        the kernel version tag, the cache format version and every
        dataclass field of the task, so any released semantic change
        selects a fresh entry.  (Unreleased source edits between version
        bumps are invisible here — use a fresh cache directory then.)
        """
        if not dataclasses.is_dataclass(task) or isinstance(task, type):
            return None
        try:
            canon = _canonical(task)
        except UnfingerprintableTask:
            return None
        label = "|".join(
            (
                f"{fn.__module__}.{fn.__qualname__}",
                f"repro:{repro.__version__}",
                KERNEL_VERSION,
                f"format:{_FORMAT_VERSION}",
                canon,
            )
        )
        return hashlib.sha256(label.encode("utf-8")).hexdigest()

    def entry_path(self, key: str) -> Path:
        """On-disk location of ``key`` (two-level fan-out)."""
        return self.root / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def peek(self, key: str) -> bool:
        """Whether an entry exists, without loading or counting it."""
        return self.entry_path(key).is_file()

    def fetch(self, key: str) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit; ``(False, None)`` on a miss.

        A corrupt or truncated entry counts as a miss and is deleted so
        the recomputed result can replace it.
        """
        path = self.entry_path(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return False, None
        except Exception:
            self.stats.invalid += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone / unwritable
                pass
            return False, None
        self.stats.hits += 1
        return True, value

    def store(self, key: str, value: Any) -> None:
        """Persist ``value`` atomically under ``key``."""
        path = self.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            dir=path.parent, prefix=f".{key[:8]}-", delete=False
        )
        try:
            with handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    def reset_stats(self) -> None:
        """Zero this cache's per-run counters (see :meth:`CacheStats.reset`)."""
        self.stats.reset()

    def stats_line(self) -> str:
        """The runner's end-of-run status line, naming the cache path.

        E.g. ``cache /tmp/shards: 8 hits, 0 misses, 0 stored``.  The
        numbers come straight from this cache's metrics registry
        (:class:`CacheStats` is a view over it).  Printed only when a
        cache directory is active (the ``--cache-dir`` flag guards the
        call), so cacheless runs stay clean.
        """
        return f"cache {self.root}: {self.stats.render()}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardCache(root={str(self.root)!r}, {self.stats.render()})"
