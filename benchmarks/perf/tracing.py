"""The traced run: spans at each layer boundary, recorded from outside.

:func:`patched` wraps every :data:`BOUNDARIES` entry for the length of
one rep.  A method is replaced on its class; a function is replaced in
every ``repro.*`` module attribute that *is* the original object, so
re-exports such as ``repro.kernels.fifo_forward`` or
``repro.facilitynet.pipeline.shard_map_fold`` are caught too.  On exit
every original is put back, including into modules first imported while
the wrappers were live.  Nothing under ``src/`` changes.

Spans stay in memory (:class:`Recorder`) as records of the program's own
span schema (``id``, ``parent``, ``name``, ``start_s``, ``wall_s``), so
the per-layer self times come from
``repro.obs.analysis.SpanForest.rollup()``.  The rep's wall not covered
by a root span is ``bench.unattributed_s``; the self times of all spans
plus the unattributed time add up to the rep's wall.

Pool workers inherit the wrappers but their spans stay in the worker;
sharded work shows up only as ``fleet.*``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Boundary:
    """One layer entry point, ``"module:Qualified.name"``, recorded as ``name``.

    ``count(args, result)`` adds to the layer's count after each call.
    A boundary with ``span=False`` is timed and counted but opens no
    span, so its caller keeps the time as self time.
    """

    name: str
    target: str
    count: Optional[Callable[[tuple, Any], int]] = None
    span: bool = True


BOUNDARIES = (
    Boundary(
        "gameserver.population",
        "repro.gameserver.population:PopulationSimulator.run",
    ),
    Boundary(
        "gameserver.packets",
        "repro.gameserver.generator:PacketLevelGenerator.generate",
        count=lambda args, result: len(result),
    ),
    Boundary("gameserver.series", "repro.gameserver.fluid:CountLevelGenerator.per_second"),
    Boundary("gameserver.live", "repro.gameserver.server:run_closed_loop"),
    Boundary("router.nat", "repro.router.nat:NatDevice.run", count=lambda args, result: 1),
    Boundary("router.device", "repro.router.device:ForwardingEngine.process"),
    Boundary(
        "router.cache",
        "repro.router.cache:simulate_cache",
        count=lambda args, result: len(args[0]),
    ),
    # the event loop runs the callbacks of the layer that owns the
    # scheduler, so it is counted, not spanned
    Boundary(
        "sim",
        "repro.sim.engine:EventScheduler.run_until",
        count=lambda args, result: result,
        span=False,
    ),
    Boundary("kernels.fifo", "repro.kernels.fifo:fifo_forward"),
    Boundary("kernels.taildrop", "repro.kernels.taildrop:tail_drop_link"),
    Boundary("matchmaking", "repro.matchmaking.engine:simulate_matchmaking"),
    Boundary("fleet.shard_map", "repro.fleet.execution:shard_map_fold"),
    Boundary("facilitynet.fabric", "repro.facilitynet.pipeline:run_fabric"),
    Boundary("facilitynet.uplink", "repro.facilitynet.pipeline:finish_uplink"),
)

#: Spans whose summed self time is reported as ``<name>.self_s``
#: (``experiments`` is opened by the paper workload around each run).
SELF_TIME_LAYERS = (
    "experiments",
    "gameserver.population",
    "gameserver.packets",
    "gameserver.series",
    "gameserver.live",
    "router.nat",
    "router.device",
    "router.cache",
    "kernels.fifo",
    "kernels.taildrop",
    "matchmaking",
    "fleet.shard_map",
    "facilitynet.fabric",
    "facilitynet.uplink",
)

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "experiments.rows_outside_tolerance": "count",
    "gameserver.packets.count": "count",
    "router.nat.calls": "count",
    "router.cache.lookups_per_s": "1/s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "kernels.fifo.packets": "count",
    "kernels.fifo.scalar_fallback_frac": "fraction",
    "kernels.fifo.scalar_call_frac": "fraction",
    "matchmaking.attempts": "count",
    "matchmaking.attempts_per_s": "1/s",
    "matchmaking.columnar.fallback_frac": "fraction",
    "fleet.worker_cpu_s": "s",
    "fleet.worker_util": "fraction",
    "fleet.worker_peak_rss_mb": "MB",
    "fleet.cache.cold_s": "s",
    "fleet.cache.warm_s": "s",
    "fleet.cache.hit_rate": "fraction",
    "facilitynet.packets": "count",
    "obs.session_overhead_frac": "fraction",
    "bench.trace_overhead_frac": "fraction",
    "bench.unattributed_s": "s",
    "bench.unattributed_frac": "fraction",
}


class Recorder:
    """Spans, counts and unspanned boundary time of one traced rep."""

    def __init__(self, workload: str, rep: int) -> None:
        self.workload = workload
        self.rep = rep
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[str, int] = {}
        #: Seconds inside each ``span=False`` boundary.
        self.timed_s: Dict[str, float] = {}
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` as a child of the innermost open span."""
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start_s": time.perf_counter(),
            "wall_s": 0.0,
            "workload": self.workload,
            "rep": self.rep,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["wall_s"] = time.perf_counter() - record["start_s"]

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Accumulate the time spent in ``name`` without opening a span."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timed_s[name] = self.timed_s.get(name, 0.0) + time.perf_counter() - start

    def add(self, name: str, count: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(count)


def null_span(name: str) -> nullcontext:
    """The untraced stand-in for :meth:`Recorder.span`."""
    return nullcontext()


# ----------------------------------------------------------------------
# wrapping
# ----------------------------------------------------------------------
def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def resolve(target: str) -> Tuple[Any, str]:
    """``"module:Class.attr"`` -> (owner object, attribute name)."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(boundary: Boundary, fn: Callable, recorder: Recorder) -> Callable:
    scope = recorder.span if boundary.span else recorder.timed
    name, count = boundary.name, boundary.count

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with scope(name):
            result = fn(*args, **kwargs)
        if count is not None:
            recorder.add(name, count(args, result))
        return result

    return wrapper


@contextmanager
def patched(recorder: Recorder) -> Iterator[None]:
    """Wrap every boundary for the block; restore all originals after."""
    installed: Dict[int, Tuple[Callable, Any]] = {}  # id(wrapper) -> (wrapper, original)
    on_classes: List[Tuple[type, str, Any]] = []
    try:
        for boundary in BOUNDARIES:
            owner, attr = resolve(boundary.target)
            original = vars(owner)[attr]
            wrapper = _wrap(boundary, original, recorder)
            installed[id(wrapper)] = (wrapper, original)
            if isinstance(owner, type):
                on_classes.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in _repro_modules():
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
        yield
    finally:
        for owner, attr, original in on_classes:
            setattr(owner, attr, original)
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                entry = installed.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])


# ----------------------------------------------------------------------
# folding spans into per-layer metrics
# ----------------------------------------------------------------------
def rollup(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Span name -> the program's ``PhaseRollup`` (calls, total and self wall)."""
    from repro.obs.analysis import SpanForest

    return {entry.name: entry for entry in SpanForest.from_records(spans).rollup()}


def unattributed(spans: List[Dict[str, Any]], wall: float) -> float:
    """Rep wall not covered by a root span (root spans never overlap)."""
    return wall - sum(span["wall_s"] for span in spans if span["parent"] is None)


def accounted_wall(spans: List[Dict[str, Any]], wall: float) -> float:
    """Sum of every span's self time plus the unattributed time."""
    return sum(entry.self_wall_s for entry in rollup(spans).values()) + unattributed(
        spans, wall
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(
    recorder: Recorder,
    wall: float,
    counters: Dict[str, Any],
    layer: Dict[str, float],
    worker_cpu_s: float,
    worker_peak_rss_mb: float,
    workers: int,
) -> Dict[str, float]:
    """Per-layer metrics of one traced rep (everything but the overheads).

    ``counters`` is the rep's ``repro.obs.registry()`` snapshot and
    ``layer`` the workload's own per-layer values.
    """
    phases = rollup(recorder.spans)

    def total_s(name: str) -> float:
        entry = phases.get(name)
        return entry.total_wall_s if entry else recorder.timed_s.get(name, 0.0)

    counts = recorder.counts
    loose = unattributed(recorder.spans, wall)
    attempts = counters.get("matchmaking.attempts", 0)
    shard_map_s = total_s("fleet.shard_map")
    fast = counters.get("kernels.fifo.fast_segments", 0)
    fallback = counters.get("kernels.fifo.scalar_fallback_segments", 0)
    scalar_calls = counters.get("kernels.fifo.scalar_calls", 0)
    metrics = {
        f"{name}.self_s": phases[name].self_wall_s if name in phases else 0.0
        for name in SELF_TIME_LAYERS
    }
    metrics.update(
        {
            "experiments.rows_outside_tolerance": 0,
            "gameserver.packets.count": counts.get("gameserver.packets", 0),
            "router.nat.calls": counts.get("router.nat", 0),
            "router.cache.lookups_per_s": _ratio(
                counts.get("router.cache", 0), total_s("router.cache")
            ),
            "sim.events": counts.get("sim", 0),
            "sim.events_per_s": _ratio(counts.get("sim", 0), total_s("sim")),
            "kernels.fifo.packets": counters.get("kernels.fifo.packets", 0),
            "kernels.fifo.scalar_fallback_frac": _ratio(fallback, fast + fallback),
            "kernels.fifo.scalar_call_frac": _ratio(
                scalar_calls, scalar_calls + counters.get("kernels.fifo.fast_path_calls", 0)
            ),
            "matchmaking.attempts": attempts,
            "matchmaking.attempts_per_s": _ratio(attempts, total_s("matchmaking")),
            "matchmaking.columnar.fallback_frac": _ratio(
                counters.get("matchmaking.columnar.scalar_fallback_attempts", 0),
                attempts,
            ),
            "fleet.worker_cpu_s": worker_cpu_s,
            "fleet.worker_util": _ratio(worker_cpu_s, shard_map_s * workers),
            # the peak covers every child this process ever waited for,
            # so it only describes pool workers when the rep had a pool
            "fleet.worker_peak_rss_mb": worker_peak_rss_mb if shard_map_s else 0.0,
            "fleet.cache.cold_s": total_s("fleet.cache.cold"),
            "fleet.cache.warm_s": total_s("fleet.cache.warm"),
            "fleet.cache.hit_rate": 0.0,
            "facilitynet.packets": counters.get("facilitynet.offered", 0),
            "bench.unattributed_s": loose,
            "bench.unattributed_frac": _ratio(loose, wall),
        }
    )
    metrics.update(layer)
    return metrics
