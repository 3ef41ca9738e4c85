"""Sharded per-server execution with order-independent determinism.

Simulating a facility is embarrassingly parallel — each server's week
depends only on its own ``(profile, seed)`` — but naive parallelism
breaks reproducibility two ways: worker-count-dependent seed derivation,
and reduction order that follows completion order (floating-point sums
are not reorderable).  This module pins both down:

* :func:`fleet_server_seed` derives each server's master seed from the
  fleet seed and the server *index* (never from a worker id or a shared
  counter), so any shard layout sees identical randomness;
* :func:`shard_map_fold` runs a task list across ``concurrent.futures``
  workers but folds results strictly in task-index order, buffering the
  out-of-order completions — the fold sees exactly the serial order, so
  serial and parallel runs are bit-identical.

Pool submissions are chunks: each future runs a run of
``ceil(misses / (8 * workers))`` consecutive tasks still to compute
(:func:`_chunk_size`), so short per-server tasks do not pay one pool
round trip each, and about eight chunks per worker keep the workers
balanced.  The fold consumes each result as soon as its index is
reached, and at most ``2 * workers * chunk`` tasks are in flight
(submitted and not yet folded: running, or finished and buffered), so
peak memory is the accumulator plus O(workers × chunk) per-server
results — never all of them at once, regardless of fleet size or task
skew.

Worker payloads are module-level functions on picklable task tuples, so
the same code path runs under fork and spawn start methods.  The fleet's
two tasks, :class:`SeriesTask` and :class:`WindowTask`, carry an
optional matchmaker-assigned session table; their workers hand it to
:class:`~repro.workloads.scenarios.Scenario`, which alone decides
whether a server simulates its own arrivals or replays those sessions.

When a trace session is active in the parent
(:func:`repro.obs.current_session`), each task of a chunk runs under a
lightweight per-worker tracer: the worker resets its (subprocess-local)
metrics registry, wraps the task in a ``fleet.worker_task`` span, and
ships the resulting span records plus metric deltas back *on the same
future* as the result — no extra IPC.  The parent absorbs the span
records into the session tracer with ``worker_pid``/``task_index``
attribution and folds the metric deltas into the process registry, so
manifest totals cover sharded work and match the ``--workers 1`` run
(worker-side metrics are integer counters; see
``tests/test_obs_workers.py``).  Without a session nothing is wrapped —
the untraced hot path is unchanged.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar

from repro.gameserver.config import ServerProfile
from repro.gameserver.fluid import FluidSeries
from repro.gameserver.population import SessionTable
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sim.random import derive_seed
from repro.trace.trace import Trace

A = TypeVar("A")
R = TypeVar("R")
T = TypeVar("T")


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(workers: Optional[int], n_tasks: int) -> int:
    """Effective worker count for ``n_tasks`` tasks.

    ``None`` means one worker per available CPU.  Never more workers
    than tasks, never fewer than one.
    """
    if workers is None:
        workers = available_cpus()
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers!r}")
    return max(1, min(int(workers), int(n_tasks)))


def fleet_server_seed(fleet_seed: int, index: int) -> int:
    """Master seed of server ``index`` — a pure function of (seed, index)."""
    return derive_seed(fleet_seed, f"fleet-server:{index}")


# ----------------------------------------------------------------------
# worker-side telemetry (piggybacked on the task future)
# ----------------------------------------------------------------------
def _traced_call(fn, task, index: int, epoch_s: float):
    """Run ``fn(task)`` in a worker under a fresh tracer; ship telemetry.

    Returns ``(result, telemetry)`` where ``telemetry`` carries the
    worker's span records (clocked against the parent session's
    ``epoch_s`` — ``perf_counter`` is system-wide on the platforms we
    run on, so worker spans land on the parent timeline) and the metric
    deltas this one task produced.  The worker registry is reset first:
    pool processes are reused across tasks, and under ``fork`` they
    inherit the parent's accumulated values, so only a zeroed registry
    makes the post-task state equal the per-task delta.
    """
    registry = obs_metrics.registry()
    registry.reset()
    tracer = obs_trace.Tracer()
    tracer.epoch_s = epoch_s
    obs_trace.install_tracer(tracer)
    try:
        with tracer.span("fleet.worker_task", task_index=index):
            result = fn(task)
    finally:
        obs_trace.install_tracer(None)
    records = tracer.records()
    deltas = registry.dump_state()
    if records:
        # per-task metric deltas ride on the root worker span, so the
        # read side can re-derive sharded metric totals from spans.jsonl
        records[0]["metrics"] = deltas
    return result, {
        "worker_pid": os.getpid(),
        "task_index": index,
        "spans": records,
        "metrics": deltas,
    }


def _merge_worker_telemetry(telemetry) -> None:
    """Absorb one task's shipped telemetry into the parent session."""
    tracer = obs_trace.current_tracer()
    if tracer is not None:
        tracer.absorb(
            telemetry["spans"],
            worker_pid=telemetry["worker_pid"],
            task_index=telemetry["task_index"],
        )
    obs_metrics.registry().merge_state(telemetry["metrics"])


def _run_chunk(fn, tasks: list, indexes: list, epoch_s: Optional[float]) -> list:
    """Worker: ``fn`` over a run of tasks, results in task order.

    ``epoch_s`` is the parent session's epoch when it is tracing (then
    each task runs under :func:`_traced_call` and keeps its own
    ``task_index`` span and metric deltas), ``None`` otherwise.
    """
    if epoch_s is None:
        return [fn(task) for task in tasks]
    return [
        _traced_call(fn, task, index, epoch_s)
        for task, index in zip(tasks, indexes)
    ]


# ----------------------------------------------------------------------
# ordered map/fold
# ----------------------------------------------------------------------
#: Target number of submitted chunks per worker (see :func:`_chunk_size`).
_CHUNKS_PER_WORKER = 8


def _chunk_size(n_tasks: int, workers: int) -> int:
    """Tasks per pool submission: about ``_CHUNKS_PER_WORKER`` chunks per worker."""
    return max(1, -(-n_tasks // (_CHUNKS_PER_WORKER * workers)))


def shard_map_fold(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    fold: Callable[[A, R], A],
    initial: A,
    workers: Optional[int] = None,
    cache: Optional["ShardCache"] = None,
) -> A:
    """``fold`` over ``fn(task)`` results, strictly in task order.

    With one effective worker this is a plain loop (no subprocesses, no
    pickling).  With more, tasks run in a :class:`ProcessPoolExecutor`
    and completions are buffered until their index is next, so the fold
    order — and therefore every floating-point sum and every stable
    merge — matches the serial run exactly.

    ``cache`` (e.g. the ``repro-experiments --cache-dir`` directory,
    passed down in :class:`repro.experiments.base.RunConfig`)
    short-circuits ``fn`` with content-addressed on-disk results: cached
    tasks are never submitted to the pool, computed results are stored
    for the next run, and the fold still sees exactly the serial order —
    warm-cache, cold-cache, serial and sharded runs are all
    bit-identical.
    """
    tasks = list(tasks)
    workers = resolve_workers(workers, len(tasks))
    obs_metrics.registry().counter("fleet.tasks").inc(len(tasks))
    with obs_trace.span(
        "fleet.shard_map",
        worker=f"{fn.__module__}.{fn.__qualname__}",
        tasks=len(tasks),
        workers=workers,
        cached=cache is not None,
    ):
        return _shard_map_fold(fn, tasks, fold, initial, workers, cache)


def _shard_map_fold(
    fn: Callable[[T], R],
    tasks: list,
    fold: Callable[[A, R], A],
    initial: A,
    workers: int,
    cache: Optional["ShardCache"],
) -> A:
    """The fold body of :func:`shard_map_fold` (span-wrapped above)."""
    keys = (
        [cache.task_key(fn, task) for task in tasks]
        if cache is not None
        else [None] * len(tasks)
    )

    def compute_through_cache(index: int) -> R:
        """Serial-path (and corrupt-entry) task evaluation."""
        key = keys[index]
        if key is not None:
            hit, value = cache.fetch(key)
            if hit:
                return value
        value = fn(tasks[index])
        if key is not None:
            cache.store(key, value)
        return value

    if workers <= 1 or len(tasks) <= 1:
        accumulator = initial
        for index in range(len(tasks)):
            with obs_trace.span("fleet.shard", server=index):
                accumulator = fold(accumulator, compute_through_cache(index))
        return accumulator

    # indexes the pool must compute: everything not already on disk
    # (peek, not fetch: entries are loaded lazily at fold time so peak
    # memory stays bounded by the in-flight cap)
    cached_indexes = {
        index
        for index, key in enumerate(keys)
        if key is not None and cache.peek(key)
    }
    miss_indexes = [
        index for index in range(len(tasks)) if index not in cached_indexes
    ]
    if cache is not None:
        cache.stats.misses += sum(
            1 for index in miss_indexes if keys[index] is not None
        )

    # when the parent is tracing, wrap each submitted task so the worker
    # ships its span records + metric deltas back with the result
    tracer = obs_trace.current_tracer()
    epoch_s = tracer.epoch_s if tracer is not None else None

    # One future per run of `chunk` consecutive misses: tasks as short
    # as a few milliseconds otherwise spend their time on pool round
    # trips.  About `_CHUNKS_PER_WORKER` chunks per worker keep the
    # workers balanced when task costs differ.
    chunk = _chunk_size(len(miss_indexes), workers)
    accumulator = initial
    next_index = 0
    submit_cursor = 0
    in_flight = 0  # tasks submitted and not yet folded
    out_of_order: dict = {}
    # Cap in-flight *tasks* (running + buffered results) so a slow early
    # task cannot pile the other N-1 results into the buffer — this is
    # what keeps peak memory independent of fleet size.
    max_in_flight = 2 * workers * chunk
    with ProcessPoolExecutor(max_workers=workers) as pool:
        indexes_of: dict = {}
        pending: set = set()

        def top_up() -> None:
            nonlocal submit_cursor, in_flight
            while submit_cursor < len(miss_indexes):
                indexes = miss_indexes[submit_cursor : submit_cursor + chunk]
                if in_flight + len(indexes) > max_in_flight:
                    break
                future = pool.submit(
                    _run_chunk,
                    fn,
                    [tasks[index] for index in indexes],
                    indexes,
                    epoch_s,
                )
                indexes_of[future] = indexes
                pending.add(future)
                submit_cursor += len(indexes)
                in_flight += len(indexes)

        def drain_ready() -> None:
            """Fold everything available at ``next_index``, in order."""
            nonlocal accumulator, next_index, in_flight
            while next_index < len(tasks):
                if next_index in out_of_order:
                    value = out_of_order.pop(next_index)
                    in_flight -= 1
                    if tracer is not None:
                        # telemetry merges strictly in task-index order,
                        # so absorbed spans and metric folds are
                        # deterministic regardless of completion order
                        value, telemetry = value
                        _merge_worker_telemetry(telemetry)
                    if keys[next_index] is not None:
                        cache.store(keys[next_index], value)
                elif next_index in cached_indexes:
                    hit, value = cache.fetch(keys[next_index])
                    if not hit:  # raced away or corrupt: recompute inline
                        value = fn(tasks[next_index])
                        cache.store(keys[next_index], value)
                else:
                    break  # still running or not yet submitted
                accumulator = fold(accumulator, value)
                next_index += 1

        top_up()
        drain_ready()
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                out_of_order.update(
                    zip(indexes_of.pop(future), future.result())
                )
            drain_ready()
            top_up()
        drain_ready()
    return accumulator


# ----------------------------------------------------------------------
# picklable per-server workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SeriesTask:
    """Per-second fluid series of one server.

    ``sessions=None`` runs the profile's own arrival process; a
    :class:`~repro.gameserver.population.SessionTable` (matchmaker
    output) replaces it — see :class:`~repro.workloads.scenarios.Scenario`.
    """

    profile: ServerProfile
    seed: int
    sessions: Optional[SessionTable] = None


@dataclass(frozen=True)
class WindowTask:
    """Packet-level window of one server (``sessions`` as in :class:`SeriesTask`)."""

    profile: ServerProfile
    seed: int
    start: float
    end: float
    sessions: Optional[SessionTable] = None


def simulate_series(task: SeriesTask) -> FluidSeries:
    """Worker: session-level week + count-level per-second series."""
    from repro.workloads.scenarios import Scenario

    return Scenario(
        task.profile, seed=task.seed, sessions=task.sessions
    ).per_second_series()


def simulate_window(task: WindowTask) -> Trace:
    """Worker: session-level week + packet-level window trace."""
    from repro.workloads.scenarios import Scenario

    return Scenario(
        task.profile, seed=task.seed, sessions=task.sessions
    ).packet_window(task.start, task.end)
