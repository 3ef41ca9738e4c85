"""Read-side analysis of trace artifact directories.

:mod:`repro.obs.export` writes artifacts *during* a run; this module
loads them back — without re-running anything — into typed objects an
operator (or the ``repro-analyze`` CLI) can interrogate:

* :func:`load_run` — one artifact directory as a :class:`TraceRun`:
  manifest, torn-tail-tolerant ``spans.jsonl`` records, JSONL streams
  and ``.npz`` series on demand;
* :class:`SpanForest` — the span records re-linked into trees by their
  ``(id, parent)`` links (worker-task records absorbed from sharded
  subprocesses land in place), with per-phase wall-time rollups and
  critical-path extraction;
* :func:`occupancy_heatmaps` / :func:`occupancy_rtt_frontier` — the
  facility views ROADMAP §5 asks for, recovered purely from the
  ``matchmaking_occupancy_<policy>.npz`` artifacts (occupancy folded
  over server home regions; per-server session RTT against
  utilization);
* :func:`derived_metric_totals` / :func:`verify_metric_totals` — metric
  totals *re-derived* from the artifacts (worker span deltas, epoch and
  hop streams) and cross-checked against the manifest, so a trace
  directory is self-validating;
* :func:`compare` — diff two runs' provenance and metric totals;
* :func:`export_chrome_trace` — the span forest as Chrome/Perfetto
  trace-event JSON (``repro-analyze export``), worker spans on their
  own tracks via ``worker_pid``, so external viewers get
  flamegraph-style views without matplotlib.

Every loader tolerates the streaming contract's failure mode: a killed
writer leaves a torn final line, which is skipped while every complete
record is kept (``tests/test_obs_analysis.py`` pins this at arbitrary
truncation offsets).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs.export import load_manifest, read_jsonl
from repro.obs.metrics import MetricsRegistry

#: Counters bumped exactly once per identically-named span.  Their
#: totals are recoverable by counting spans across the whole forest —
#: parent-process spans are recorded live, worker spans are absorbed —
#: so they stay derivable even when the same counter is bumped on both
#: sides of the process boundary.
SPAN_COUNTERS = {
    "scenario.population": "scenario.populations",
    "scenario.packet_window": "scenario.packet_windows",
    "scenario.series": "scenario.series_built",
}

#: Quantity counters bumped alongside one span kind.  Worker span
#: deltas reproduce them exactly *only* when every span of that kind
#: ran in a worker; a parent-process occurrence contributes an amount
#: the artifacts don't record, making the total underivable.
WORKER_QUANTITY_COUNTERS = {
    "scenario.sessions": "scenario.population",
    "scenario.packets": "scenario.packet_window",
}


# ----------------------------------------------------------------------
# span forest
# ----------------------------------------------------------------------
@dataclass
class SpanNode:
    """One ``spans.jsonl`` record plus its re-linked children."""

    record: Dict[str, Any]
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record.get("name", "?")

    @property
    def depth(self) -> int:
        return int(self.record.get("depth", 0))

    @property
    def wall_s(self) -> float:
        return float(self.record.get("wall_s", 0.0))

    @property
    def self_wall_s(self) -> float:
        """Wall time not covered by child spans (clamped at zero)."""
        return max(0.0, self.wall_s - sum(c.wall_s for c in self.children))

    @property
    def worker_pid(self) -> Optional[int]:
        """Subprocess pid for absorbed worker records, else ``None``."""
        return self.record.get("worker_pid")

    @property
    def task_index(self) -> Optional[int]:
        return self.record.get("task_index")

    @property
    def metrics(self) -> Dict[str, Dict[str, Any]]:
        """Per-task metric deltas (worker root spans only)."""
        return self.record.get("metrics", {})


@dataclass(frozen=True)
class PhaseRollup:
    """Aggregate wall time of every span sharing one name."""

    name: str
    calls: int
    total_wall_s: float
    self_wall_s: float
    share: float  # of the summed root wall time
    max_peak_rss_kb: float


class SpanForest:
    """The span records of one run, re-linked into trees."""

    def __init__(self, roots: List[SpanNode], nodes: List[SpanNode]) -> None:
        self.roots = roots
        self.nodes = nodes

    @classmethod
    def from_records(cls, records: List[Dict[str, Any]]) -> "SpanForest":
        """Rebuild the forest from flat records.

        Records carry explicit ``(id, parent)`` links (artifact schema
        v2).  Legacy records without ids fall back to the depth/file-
        order walk invariant of the v1 exporter.
        """
        nodes = [SpanNode(record) for record in records]
        roots: List[SpanNode] = []
        if all(node.record.get("id") is not None for node in nodes):
            by_id = {node.record["id"]: node for node in nodes}
            for node in nodes:
                parent = by_id.get(node.record.get("parent"))
                if parent is None or parent is node:
                    roots.append(node)
                else:
                    parent.children.append(node)
        else:  # v1 fallback: depth-first file order
            stack: List[SpanNode] = []
            for node in nodes:
                del stack[node.depth:]
                if stack:
                    stack[-1].children.append(node)
                else:
                    roots.append(node)
                stack.append(node)
        return cls(roots, nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[SpanNode]:
        """Depth-first over every node, tree by tree."""

        def walk(node: SpanNode) -> Iterator[SpanNode]:
            yield node
            for child in node.children:
                yield from walk(child)

        for root in self.roots:
            yield from walk(root)

    def worker_nodes(self) -> List[SpanNode]:
        """Absorbed worker-task roots (records carrying a pid but whose
        parent, if any, is a parent-process span)."""
        return [
            node
            for node in self.nodes
            if node.worker_pid is not None and node.name == "fleet.worker_task"
        ]

    # ------------------------------------------------------------------
    def rollup(self) -> List[PhaseRollup]:
        """Per-name wall-time aggregation, heaviest total first."""
        by_name: Dict[str, List[SpanNode]] = {}
        for node in self.nodes:
            by_name.setdefault(node.name, []).append(node)
        total_root = sum(root.wall_s for root in self.roots)
        rollups = [
            PhaseRollup(
                name=name,
                calls=len(group),
                total_wall_s=sum(n.wall_s for n in group),
                self_wall_s=sum(n.self_wall_s for n in group),
                share=(
                    sum(n.wall_s for n in group) / total_root
                    if total_root
                    else 0.0
                ),
                max_peak_rss_kb=max(
                    float(n.record.get("peak_rss_kb", 0.0)) for n in group
                ),
            )
            for name, group in by_name.items()
        ]
        rollups.sort(key=lambda r: (-r.total_wall_s, r.name))
        return rollups

    def critical_path(self) -> List[SpanNode]:
        """Root-to-leaf chain of heaviest spans.

        Starts at the longest root and greedily descends into the
        longest child — the spans to optimise first, in order.
        """
        if not self.roots:
            return []
        node = max(self.roots, key=lambda n: n.wall_s)
        path = [node]
        while node.children:
            node = max(node.children, key=lambda n: n.wall_s)
            path.append(node)
        return path


# ----------------------------------------------------------------------
# a loaded run
# ----------------------------------------------------------------------
class TraceRun:
    """One artifact directory, loaded for analysis (never re-executed)."""

    def __init__(self, root: Path, manifest: Dict[str, Any]) -> None:
        self.root = Path(root)
        self.manifest = manifest
        self._spans: Optional[List[Dict[str, Any]]] = None
        self._forest: Optional[SpanForest] = None

    # -- artifacts -----------------------------------------------------
    @property
    def artifacts(self) -> Dict[str, Dict[str, Any]]:
        """The manifest's artifact inventory (name → kind/rows)."""
        return self.manifest.get("artifacts", {})

    @property
    def metric_totals(self) -> Dict[str, Any]:
        """The manifest's final metric snapshot."""
        return self.manifest.get("metrics", {})

    @property
    def spans(self) -> List[Dict[str, Any]]:
        """Flat ``spans.jsonl`` records (torn tail skipped; cached)."""
        if self._spans is None:
            path = self.root / "spans.jsonl"
            self._spans = read_jsonl(path) if path.exists() else []
        return self._spans

    @property
    def forest(self) -> SpanForest:
        """The reconstructed span forest (cached)."""
        if self._forest is None:
            self._forest = SpanForest.from_records(self.spans)
        return self._forest

    def read_stream(self, name: str) -> List[Dict[str, Any]]:
        """Records of the ``<name>.jsonl`` stream ([] when absent)."""
        path = self.root / f"{name}.jsonl"
        return read_jsonl(path) if path.exists() else []

    def arrays(self, name: str) -> Dict[str, np.ndarray]:
        """The arrays of the ``<name>.npz`` artifact, fully loaded."""
        with np.load(self.root / f"{name}.npz", allow_pickle=False) as data:
            return {key: data[key] for key in data.files}

    def occupancy_policies(self) -> List[str]:
        """Policies with a ``matchmaking_occupancy_<policy>.npz``."""
        prefix, suffix = "matchmaking_occupancy_", ".npz"
        return sorted(
            name[len(prefix):-len(suffix)]
            for name in self.artifacts
            if name.startswith(prefix) and name.endswith(suffix)
        )


def load_run(root) -> TraceRun:
    """Load a trace artifact directory produced by a
    :class:`~repro.obs.export.TraceSession`."""
    root = Path(root)
    if not (root / "manifest.json").exists():
        raise FileNotFoundError(
            f"{root} has no manifest.json — not a finished trace directory "
            "(spans/streams may exist if the run was killed; load them "
            "directly with repro.obs.read_jsonl)"
        )
    return TraceRun(root, load_manifest(root))


# ----------------------------------------------------------------------
# metric totals re-derived from artifacts
# ----------------------------------------------------------------------
def worker_metric_totals(run: TraceRun) -> Dict[str, Any]:
    """Sharded-work metric totals rebuilt from worker span records.

    Each ``fleet.worker_task`` record carries the metric deltas of its
    one task; merging them (in task-index order, as the parent did)
    reproduces exactly what the live merge folded into the manifest.
    """
    registry = MetricsRegistry()
    for node in sorted(
        run.forest.worker_nodes(), key=lambda n: (n.task_index or 0)
    ):
        registry.merge_state(node.metrics)
    return registry.snapshot()


def derived_metric_totals(run: TraceRun) -> Dict[str, Any]:
    """Metric totals recomputed from the artifacts alone.

    Covers every total with an artifact-side source of truth: sharded
    worker metrics from span records, span-count counters
    (:data:`SPAN_COUNTERS`) from the forest, matchmaking admission
    totals from the epoch stream, facilitynet packet totals from the
    hop stream.  Parent-side metrics with no streamed counterpart
    (e.g. cache counters) are not derivable and are absent from the
    result.
    """
    derived: Dict[str, Any] = dict(worker_metric_totals(run))

    span_counts: Dict[str, int] = {}
    parent_counts: Dict[str, int] = {}
    for node in run.forest:
        span_counts[node.name] = span_counts.get(node.name, 0) + 1
        if node.worker_pid is None:
            parent_counts[node.name] = parent_counts.get(node.name, 0) + 1
    for span_name, counter in SPAN_COUNTERS.items():
        if span_counts.get(span_name):
            derived[counter] = span_counts[span_name]
    for counter, span_name in WORKER_QUANTITY_COUNTERS.items():
        if counter in derived and parent_counts.get(span_name, 0):
            del derived[counter]

    epochs = run.read_stream("matchmaking_epochs")
    if epochs:
        for key in ("attempts", "admitted", "rejected", "balked", "retried"):
            derived[f"matchmaking.{key}"] = sum(row[key] for row in epochs)

    hops = run.read_stream("facilitynet_hops")
    if hops:
        for key in ("offered", "forwarded", "dropped"):
            derived[f"facilitynet.{key}"] = sum(row[key] for row in hops)

    return derived


def verify_metric_totals(
    run: TraceRun,
) -> List[Tuple[str, Any, Any, bool]]:
    """Cross-check derived totals against the manifest.

    Returns ``(name, derived, manifest, ok)`` rows for every derivable
    metric; ``ok`` is exact equality (worker metrics are integer
    counters and stream sums are exact integer arithmetic).
    """
    totals = run.metric_totals
    rows = []
    for name, value in sorted(derived_metric_totals(run).items()):
        recorded = totals.get(name)
        rows.append((name, value, recorded, value == recorded))
    return rows


# ----------------------------------------------------------------------
# facility views from artifacts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OccupancyHeatmap:
    """Occupancy × region × epoch, folded from one policy's artifacts."""

    policy: str
    region_names: Tuple[str, ...]
    #: ``matrix[r, e]`` — summed occupancy of region ``r``'s servers at
    #: epoch ``e``.
    matrix: np.ndarray
    #: Per-region summed slot capacity (same region order).
    capacities: np.ndarray
    epoch_length: float

    @property
    def n_epochs(self) -> int:
        return self.matrix.shape[1]

    def utilization(self) -> np.ndarray:
        """``matrix`` normalised by region capacity (rows in [0, 1])."""
        caps = np.where(self.capacities > 0, self.capacities, 1)
        return self.matrix / caps[:, None]


def occupancy_heatmap(run: TraceRun, policy: str) -> OccupancyHeatmap:
    """The occupancy × region × epoch heatmap of one policy's run."""
    data = run.arrays(f"matchmaking_occupancy_{policy}")
    for key in ("occupancy", "server_regions", "region_names", "capacities"):
        if key not in data:
            raise KeyError(
                f"matchmaking_occupancy_{policy}.npz lacks {key!r} "
                "(artifact written by a pre-v2 exporter?)"
            )
    occupancy = data["occupancy"]  # servers × epochs
    server_regions = data["server_regions"]
    region_names = tuple(str(name) for name in data["region_names"])
    capacities = data["capacities"]
    n_regions = len(region_names)
    matrix = np.zeros((n_regions, occupancy.shape[1]), dtype=occupancy.dtype)
    region_caps = np.zeros(n_regions, dtype=capacities.dtype)
    for region in range(n_regions):
        mask = server_regions == region
        matrix[region] = occupancy[mask].sum(axis=0)
        region_caps[region] = capacities[mask].sum()
    return OccupancyHeatmap(
        policy=policy,
        region_names=region_names,
        matrix=matrix,
        capacities=region_caps,
        epoch_length=float(data["epoch_length"]),
    )


def occupancy_heatmaps(run: TraceRun) -> Dict[str, OccupancyHeatmap]:
    """Heatmaps for every policy the run traced."""
    return {
        policy: occupancy_heatmap(run, policy)
        for policy in run.occupancy_policies()
    }


@dataclass(frozen=True)
class FrontierPoint:
    """One policy's (utilization, session RTT) trade-off point."""

    policy: str
    utilization: float
    mean_rtt_ms: float
    sessions: int


def occupancy_rtt_frontier(run: TraceRun) -> List[FrontierPoint]:
    """The occupancy–RTT frontier across the run's traced policies.

    Utilization is the epoch-mean occupied share of the facility;
    RTT is the session-count-weighted mean of per-server session RTTs —
    both straight from the occupancy artifacts, no simulation state.
    Sorted by utilization, so plotting the points in order draws the
    frontier.
    """
    points = []
    for policy in run.occupancy_policies():
        data = run.arrays(f"matchmaking_occupancy_{policy}")
        occupancy = data["occupancy"]
        capacity = float(data["capacities"].sum())
        n_epochs = occupancy.shape[1]
        utilization = (
            float(occupancy.sum()) / (capacity * n_epochs)
            if capacity and n_epochs
            else 0.0
        )
        counts = data.get("session_counts")
        rtts = data.get("mean_session_rtt_ms")
        if counts is not None and rtts is not None and counts.sum() > 0:
            valid = counts > 0
            mean_rtt = float(
                np.sum(rtts[valid] * counts[valid]) / counts[valid].sum()
            )
            sessions = int(counts.sum())
        else:
            mean_rtt = float("nan")
            sessions = 0
        points.append(
            FrontierPoint(
                policy=policy,
                utilization=utilization,
                mean_rtt_ms=mean_rtt,
                sessions=sessions,
            )
        )
    points.sort(key=lambda p: p.utilization)
    return points


# ----------------------------------------------------------------------
# cross-run comparison
# ----------------------------------------------------------------------
def _scalarize(value: Any) -> Optional[float]:
    """A comparable scalar for a metric total (histograms → count)."""
    if isinstance(value, dict):
        value = value.get("count")
    if isinstance(value, (int, float)):
        return float(value)
    return None


@dataclass(frozen=True)
class MetricDiff:
    """One metric's totals across two runs."""

    name: str
    a: Any
    b: Any

    @property
    def relative_change(self) -> Optional[float]:
        """(b - a) / a when both sides are nonzero scalars."""
        a, b = _scalarize(self.a), _scalarize(self.b)
        if a is None or b is None or a == 0:
            return None
        return (b - a) / a


@dataclass(frozen=True)
class RunComparison:
    """Provenance + metric diff of two loaded runs."""

    a: TraceRun
    b: TraceRun
    provenance: Dict[str, Tuple[Any, Any]]
    metrics: List[MetricDiff]

    @property
    def comparable(self) -> bool:
        """Equal config fingerprints ⇒ same knobs, comparable totals."""
        fingerprint = self.provenance.get("config_fingerprint")
        return fingerprint is None or fingerprint[0] == fingerprint[1]

    def changed_metrics(self) -> List[MetricDiff]:
        return [diff for diff in self.metrics if diff.a != diff.b]

    def render(self) -> str:
        """Human-readable comparison report."""
        lines = [f"compare {self.a.root} vs {self.b.root}"]
        for key, (va, vb) in sorted(self.provenance.items()):
            marker = "=" if va == vb else "≠"
            lines.append(f"  {key:<20} {marker}  {va!r} -> {vb!r}")
        if not self.comparable:
            lines.append(
                "  (config fingerprints differ: totals are expected to "
                "diverge)"
            )
        changed = self.changed_metrics()
        if not changed:
            lines.append("  metric totals: identical")
        else:
            lines.append(f"  metric totals: {len(changed)} differ")
            for diff in changed:
                rel = diff.relative_change
                suffix = f"  ({rel:+.1%})" if rel is not None else ""
                lines.append(
                    f"    {diff.name:<36} {diff.a!r} -> {diff.b!r}{suffix}"
                )
        return "\n".join(lines)


def compare(run_a: TraceRun, run_b: TraceRun) -> RunComparison:
    """Diff two runs' provenance fields and metric totals."""
    provenance = {}
    for key in (
        "schema",
        "repro_version",
        "kernel_version",
        "git_rev",
        "seed",
        "config_fingerprint",
        "experiments",
    ):
        va, vb = run_a.manifest.get(key), run_b.manifest.get(key)
        if va is not None or vb is not None:
            provenance[key] = (va, vb)
    names = sorted(set(run_a.metric_totals) | set(run_b.metric_totals))
    metrics = [
        MetricDiff(
            name,
            run_a.metric_totals.get(name),
            run_b.metric_totals.get(name),
        )
        for name in names
    ]
    return RunComparison(
        a=run_a, b=run_b, provenance=provenance, metrics=metrics
    )


# ----------------------------------------------------------------------
# trace-event export (Chrome/Perfetto)
# ----------------------------------------------------------------------
#: Track id used for parent-process spans (workers use their pid).
MAIN_TRACK = 0

#: The single synthetic "process" every track hangs off.
_TRACE_PID = 1


def chrome_trace_events(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Flat span records as Chrome trace-event dicts.

    Every record becomes exactly one complete (``"ph": "X"``) event with
    microsecond ``ts``/``dur`` on the session timeline.  Parent-process
    spans share :data:`MAIN_TRACK`; absorbed worker records land on a
    per-``worker_pid`` track, so viewers draw one flamegraph lane per
    subprocess.  Metadata events name the tracks.
    """
    events: List[Dict[str, Any]] = []
    tracks: Dict[int, str] = {}
    for record in records:
        worker_pid = record.get("worker_pid")
        tid = MAIN_TRACK if worker_pid is None else int(worker_pid)
        tracks.setdefault(
            tid, "main" if worker_pid is None else f"worker {worker_pid}"
        )
        name = str(record.get("name", "?"))
        args: Dict[str, Any] = {
            "path": record.get("path"),
            "span_id": record.get("id"),
            "parent": record.get("parent"),
        }
        if record.get("attrs"):
            args["attrs"] = record["attrs"]
        if worker_pid is not None:
            args["task_index"] = record.get("task_index")
        events.append(
            {
                "ph": "X",
                "name": name,
                "cat": name.split(".", 1)[0],
                "ts": float(record.get("start_s", 0.0)) * 1e6,
                "dur": float(record.get("wall_s", 0.0)) * 1e6,
                "pid": _TRACE_PID,
                "tid": tid,
                "args": args,
            }
        )
    metadata: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _TRACE_PID,
            "tid": MAIN_TRACK,
            "args": {"name": "repro traced run"},
        }
    ]
    for tid in sorted(tracks):
        metadata.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _TRACE_PID,
                "tid": tid,
                "args": {"name": tracks[tid]},
            }
        )
        metadata.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": _TRACE_PID,
                "tid": tid,
                # main lane first, then workers by pid
                "args": {"sort_index": 0 if tid == MAIN_TRACK else 1 + tid},
            }
        )
    return metadata + events


def export_chrome_trace(run) -> Dict[str, Any]:
    """A loaded run (or trace-dir path) as a trace-event JSON document.

    The result loads directly in ``chrome://tracing`` / Perfetto.  Spans
    round-trip: every ``spans.jsonl`` record appears exactly once, with
    matching duration, on its worker's track.
    """
    if not isinstance(run, TraceRun):
        run = load_run(run)
    return {
        "displayTimeUnit": "ms",
        "metadata": {
            "trace_dir": str(run.root),
            "git_rev": run.manifest.get("git_rev"),
            "seed": run.manifest.get("seed"),
            "config_fingerprint": run.manifest.get("config_fingerprint"),
        },
        "traceEvents": chrome_trace_events(run.spans),
    }


def write_chrome_trace(run, path) -> int:
    """Serialise :func:`export_chrome_trace` to ``path``; returns the
    number of span events written (metadata events excluded)."""
    document = export_chrome_trace(run)
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, separators=(",", ":"))
        handle.write("\n")
    return sum(1 for e in document["traceEvents"] if e["ph"] == "X")
