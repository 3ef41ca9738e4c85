"""Streaming artifact exporters and the per-run trace session.

:class:`JsonlWriter` feeds an artifact directory *while* a run is in
progress: one JSON object per line, flushed per record, numpy-aware
(``int64``/``float64`` scalars export losslessly — a ``float64`` **is**
a JSON double, an ``int64`` fits Python's arbitrary-precision int —
pinned by a hypothesis round-trip suite).

:class:`TraceSession` owns one artifact directory per traced run: it
creates named streams on demand, collects the span tracer, and on
:meth:`~TraceSession.finish` writes ``spans.jsonl`` plus a
``manifest.json`` recording the seed/config fingerprint, git revision,
package/kernel versions, metric totals and the artifact inventory —
enough to interpret (and reproduce) every file in the directory.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from pathlib import Path
from typing import IO, Any, Dict, List, Optional

import numpy as np

import repro
from repro.obs.live import ProgressPublisher, ResourceSampler
from repro.obs.trace import Tracer

#: Bump on any change to the artifact layout or manifest schema.
#: v2: span records carry ``id``/``parent`` links, and sharded runs
#: append worker-task records with ``worker_pid``/``task_index``
#: attribution and per-task ``metrics`` deltas.
ARTIFACT_SCHEMA_VERSION = 2


# ----------------------------------------------------------------------
# numpy-aware JSON
# ----------------------------------------------------------------------
def to_jsonable(value: Any) -> Any:
    """``value`` rebuilt from JSON-native types, losslessly for scalars.

    ``np.float64`` → ``float`` is the identity on doubles;
    ``np.int64`` → ``int`` is exact (Python ints are unbounded); 32-bit
    and smaller scalars widen exactly.  Arrays become (nested) lists,
    mappings/sequences recurse.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    raise TypeError(f"not JSON-exportable: {type(value).__name__}")


class NumpyJSONEncoder(json.JSONEncoder):
    """``json`` encoder accepting numpy scalars and arrays."""

    def default(self, obj: Any) -> Any:
        try:
            return to_jsonable(obj)
        except TypeError:
            return super().default(obj)


def fingerprint(value: Any) -> str:
    """Stable SHA-256 hex digest of a JSON-able configuration value."""
    canon = json.dumps(
        to_jsonable(value), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def git_revision(cwd: Optional[Path] = None) -> str:
    """The checkout's HEAD commit, or ``"unknown"`` outside a repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=None if cwd is None else str(cwd),
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else "unknown"


# ----------------------------------------------------------------------
# writers
# ----------------------------------------------------------------------
class JsonlWriter:
    """Append JSON records to a ``.jsonl`` file, one per line.

    Each record is flushed immediately, so a killed run leaves every
    completed line readable — the streaming contract.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.rows = 0
        self._handle: Optional[IO[str]] = open(self.path, "w", encoding="utf-8")

    def write(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            raise ValueError(f"writer for {self.path} is closed")
        json.dump(
            record,
            self._handle,
            cls=NumpyJSONEncoder,
            separators=(",", ":"),
        )
        self._handle.write("\n")
        self._handle.flush()
        self.rows += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def read_jsonl(path) -> List[Dict[str, Any]]:
    """All records of a ``.jsonl`` artifact (skips a trailing torn line)."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                break  # torn tail of a killed run: keep what parsed
    return records


# ----------------------------------------------------------------------
# the per-run session
# ----------------------------------------------------------------------
class TraceSession:
    """One traced run: an artifact directory, a tracer, named streams.

    Instrumented layers look the session up via
    :func:`repro.obs.current_session` and attach rows to named streams;
    nothing is written unless a session is active.  ``finish()`` closes
    every stream, dumps the span forest, and writes the manifest.
    """

    def __init__(self, root, info: Optional[Dict[str, Any]] = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.tracer = Tracer()
        self.info = dict(info or {})
        self._streams: Dict[str, JsonlWriter] = {}
        self._arrays: List[str] = []
        self._started_unix = time.time()
        self._t0 = time.perf_counter()
        self._finished = False
        self._progress: Optional[ProgressPublisher] = None
        self._sampler: Optional[ResourceSampler] = None
        #: One-line end-of-run figures, filled by :meth:`finish`.
        self.rollup: Dict[str, Any] = {}

    @property
    def t0(self) -> float:
        """``perf_counter`` origin of this session (wall_s reference)."""
        return self._t0

    def stream(self, name: str) -> JsonlWriter:
        """The named ``.jsonl`` stream (created on first use)."""
        writer = self._streams.get(name)
        if writer is None:
            writer = self._streams[name] = JsonlWriter(
                self.root / f"{name}.jsonl"
            )
        return writer

    def progress(
        self,
        stage: str,
        done: Optional[int] = None,
        total: Optional[int] = None,
        **extra: Any,
    ) -> bool:
        """Publish a rate-limited heartbeat into ``progress.jsonl``.

        Callers go through :func:`repro.obs.progress`, which is a no-op
        without an active session.  Returns True if a row was written
        (the call may be suppressed by the rate limit).
        """
        publisher = self._progress
        if publisher is None:
            publisher = self._progress = ProgressPublisher(
                self.stream("progress"), self._t0
            )
        return publisher.publish(stage, done, total, **extra)

    def start_sampler(self, interval_s: float) -> ResourceSampler:
        """Start the background resource sampler (one per session)."""
        if self._sampler is not None:
            raise RuntimeError("resource sampler already running")
        sampler = ResourceSampler(self, interval_s)
        self._sampler = sampler
        sampler.start()
        return sampler

    def save_arrays(self, base: str, **arrays: Any) -> Path:
        """Write named arrays to ``<base>.npz`` (suffixing duplicates)."""
        name, k = base, 0
        while name in self._arrays:
            k += 1
            name = f"{base}-{k}"
        self._arrays.append(name)
        path = self.root / f"{name}.npz"
        np.savez_compressed(
            path, **{key: np.asarray(value) for key, value in arrays.items()}
        )
        return path

    def artifact_inventory(self) -> Dict[str, Dict[str, Any]]:
        """Name → {kind, rows} for everything this session produced."""
        inventory: Dict[str, Dict[str, Any]] = {}
        for name, writer in self._streams.items():
            inventory[f"{name}.jsonl"] = {"kind": "jsonl", "rows": writer.rows}
        for name in self._arrays:
            inventory[f"{name}.npz"] = {"kind": "arrays"}
        return inventory

    def finish(
        self, metrics: Optional[Dict[str, Any]] = None
    ) -> Path:
        """Close all writers, dump spans, write and return the manifest."""
        if self._finished:
            return self.root / "manifest.json"
        self._finished = True
        if self._sampler is not None:
            # stop (and join) before closing streams so the sampler
            # thread never writes into a closed handle
            self._sampler.stop()
            self._sampler = None
        records = self.tracer.records()
        spans = JsonlWriter(self.root / "spans.jsonl")
        for record in records:
            spans.write(record)
        spans.close()
        for writer in self._streams.values():
            writer.close()
        from repro.kernels import KERNEL_VERSION
        from repro.obs.trace import peak_rss_kb

        metrics = to_jsonable(metrics or {})
        duration_s = time.perf_counter() - self._t0
        hits = metrics.get("shard_cache.hits", 0)
        misses = metrics.get("shard_cache.misses", 0)
        progress_writer = self._streams.get("progress")
        resources_writer = self._streams.get("resources")
        self.rollup = {
            "duration_s": duration_s,
            "span_count": spans.rows,
            # the parent's high-water mark; worker spans may report
            # their own (lower-lifetime) subprocess peaks
            "peak_rss_kb": max(
                [peak_rss_kb()]
                + [r.get("peak_rss_kb", 0.0) for r in records]
            ),
            "cache_hits": hits,
            "cache_lookups": hits + misses,
            "heartbeats": progress_writer.rows if progress_writer else 0,
            "resource_samples": (
                resources_writer.rows if resources_writer else 0
            ),
        }

        manifest = {
            "schema": ARTIFACT_SCHEMA_VERSION,
            "repro_version": repro.__version__,
            "kernel_version": KERNEL_VERSION,
            "git_rev": git_revision(),
            "started_unix": self._started_unix,
            "duration_s": duration_s,
            **{key: to_jsonable(value) for key, value in self.info.items()},
            "heartbeats": self.rollup["heartbeats"],
            "resource_samples": self.rollup["resource_samples"],
            "artifacts": {
                "spans.jsonl": {"kind": "jsonl", "rows": spans.rows},
                **self.artifact_inventory(),
            },
            "metrics": metrics,
        }
        path = self.root / "manifest.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, cls=NumpyJSONEncoder, indent=2)
            handle.write("\n")
        return path

    def rollup_line(self) -> str:
        """The one-line end-of-run summary (valid after :meth:`finish`)."""
        r = self.rollup
        if not r:
            return "trace rollup: (session not finished)"
        if r["cache_lookups"]:
            cache = (
                f"cache {r['cache_hits']}/{r['cache_lookups']} hits "
                f"({100.0 * r['cache_hits'] / r['cache_lookups']:.1f}%)"
            )
        else:
            cache = "cache unused"
        return (
            f"trace rollup: {r['duration_s']:.2f} s wall | "
            f"peak rss {r['peak_rss_kb'] / 1024.0:.1f} MiB | "
            f"{r['span_count']} spans | "
            f"{r['heartbeats']} heartbeats | "
            f"{r['resource_samples']} samples | {cache}"
        )


def load_manifest(root) -> Dict[str, Any]:
    """Parse ``manifest.json`` from an artifact directory."""
    with open(Path(root) / "manifest.json", "r", encoding="utf-8") as handle:
        return json.load(handle)
