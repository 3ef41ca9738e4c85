"""Live in-flight run monitoring: heartbeats, resource samples, tailing.

The PR 6/7 observability stack is post-hoc — ``spans.jsonl`` and the
manifest only become useful after :meth:`TraceSession.finish`.  This
module adds the *while-it-runs* half on both sides of the artifact
directory:

Write side (active only under a trace session — the hooks are NULL
no-ops otherwise, preserving the bit-identity contract of
``tests/test_obs_noninvasive.py``):

* :class:`ProgressPublisher` — the engine behind
  :func:`repro.obs.progress`: long-running loops publish
  ``(stage, done, total)`` heartbeats into ``progress.jsonl``,
  rate-limited per stage so a million-iteration loop costs a clock read
  per call and one JSONL row per
  :data:`PROGRESS_INTERVAL_S`;
* :class:`ResourceSampler` — a daemon thread sampling wall clock, RSS
  (current + peak), CPU time and the currently-open span path into
  ``resources.jsonl`` at a fixed interval
  (``repro-experiments --sample-interval``), giving watchers a liveness
  signal that ticks even when no loop is publishing.

Read side (no simulation, no session — files only):

* :func:`tail_jsonl` / :class:`JsonlTail` — offset-resuming JSONL
  readers: each poll reads only the bytes appended since the last one
  and never yields a torn or duplicated record (the offset advances
  past newline-terminated lines only);
* :class:`WatchState` — tails ``progress.jsonl`` and
  ``resources.jsonl`` into a per-stage status table (progress bars,
  recent-window rates, ETA, heartbeat ages) with stall detection — no
  heartbeat for :data:`STALL_FACTOR` × the expected interval flags the
  run, which ``repro-analyze watch --strict`` turns into a nonzero
  exit;
* :func:`export_chrome_trace` — a finished run's span forest as
  Chrome/Perfetto trace-event JSON (``repro-analyze export``), worker
  spans on their own tracks via ``worker_pid``, so external viewers get
  flamegraph-style views without matplotlib.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.trace import peak_rss_kb

#: Minimum seconds between two published heartbeats of one stage.  The
#: first record of a stage and the record that completes it are always
#: written, so short stages still leave a full start/finish pair.
PROGRESS_INTERVAL_S = 0.25

#: A heartbeat older than ``STALL_FACTOR`` × its expected interval marks
#: the run as stalled (``repro-analyze watch``).
STALL_FACTOR = 10.0

#: Stall floor when only rate-limited progress heartbeats are available:
#: their interval is a *minimum* gap (a slow stage legitimately beats
#: slower), so without a resource sampler the verdict needs slack.
PROGRESS_STALL_FLOOR_S = 30.0

#: Published records kept per stage for the recent-window rate (ETA).
_RATE_WINDOW = 16


# ----------------------------------------------------------------------
# write side: heartbeats
# ----------------------------------------------------------------------
class _StageState:
    """Publisher-side bookkeeping of one stage's heartbeat stream."""

    __slots__ = ("done", "total", "last_mono", "last_done")

    def __init__(self) -> None:
        self.done = 0
        self.total: Optional[int] = None
        self.last_mono: Optional[float] = None
        self.last_done = 0


class ProgressPublisher:
    """Rate-limited per-stage heartbeats into a ``progress.jsonl`` stream.

    One publisher per :class:`~repro.obs.export.TraceSession`; callers
    go through :func:`repro.obs.progress`, which resolves to a no-op
    when no session is active.  Records carry both a wall-clock
    timestamp (``unix`` — comparable across processes, the watcher's
    staleness clock) and the session-relative ``wall_s``.
    """

    def __init__(
        self, writer, t0: float, interval_s: float = PROGRESS_INTERVAL_S
    ) -> None:
        self.writer = writer
        self.t0 = t0
        self.interval_s = float(interval_s)
        self._stages: Dict[str, _StageState] = {}

    def publish(
        self,
        stage: str,
        done: Optional[int] = None,
        total: Optional[int] = None,
        **extra: Any,
    ) -> bool:
        """Record progress of ``stage``; returns True if a row was written.

        ``done=None`` increments the stage's counter by one (for loops
        that don't track an index); ``total=None`` leaves the target
        unknown (rates still publish, ETA does not).  Suppressed calls
        (inside the rate-limit window) cost one clock read.
        """
        state = self._stages.get(stage)
        if state is None:
            state = self._stages[stage] = _StageState()
        state.done = state.done + 1 if done is None else int(done)
        if total is not None:
            state.total = int(total)
        now = time.perf_counter()
        final = state.total is not None and state.done >= state.total
        if (
            state.last_mono is not None
            and not final
            and now - state.last_mono < self.interval_s
        ):
            return False
        if state.last_mono is None:
            rate = None
        else:
            elapsed = now - state.last_mono
            delta = state.done - state.last_done
            # a restarted stage (done went backwards, e.g. the next
            # policy's run reusing the stage name) has no meaningful rate
            rate = delta / elapsed if elapsed > 0 and delta >= 0 else None
        record = {
            "stage": stage,
            "done": state.done,
            "total": state.total,
            "rate": rate,
            "unix": time.time(),
            "wall_s": now - self.t0,
            "interval_s": self.interval_s,
        }
        if extra:
            record.update(extra)
        self.writer.write(record)
        state.last_mono = now
        state.last_done = state.done
        return True


# ----------------------------------------------------------------------
# write side: the background resource sampler
# ----------------------------------------------------------------------
def current_rss_kb() -> float:
    """This process's *current* resident set size in KiB.

    Reads ``/proc/self/statm`` where available (Linux); falls back to
    the peak high-water mark elsewhere — still monotone, still KiB.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGE_SIZE") / 1024.0
    except (OSError, IndexError, ValueError):  # pragma: no cover - non-Linux
        return peak_rss_kb()


class ResourceSampler(threading.Thread):
    """Daemon thread writing one ``resources.jsonl`` row per interval.

    Samples clocks, RSS, CPU time and the currently-open span path —
    observers only, never RNG, so a sampled run stays bit-identical to
    an unsampled one.  Owned by :class:`~repro.obs.export.TraceSession`
    (``start_sampler``/``finish``); its stream writer is created on the
    caller's thread and is the only writer this thread touches, so no
    file handle is shared across threads.
    """

    def __init__(self, session, interval_s: float) -> None:
        if not interval_s > 0:
            raise ValueError(
                f"sample interval must be > 0 seconds: {interval_s!r}"
            )
        super().__init__(name="repro-obs-sampler", daemon=True)
        self.session = session
        self.interval_s = float(interval_s)
        self.writer = session.stream("resources")
        self._stop_event = threading.Event()

    def run(self) -> None:  # pragma: no branch - trivial loop shape
        while not self._stop_event.is_set():
            self.sample()
            self._stop_event.wait(self.interval_s)

    def sample(self) -> None:
        """Write one sample row (tolerates a closing session's race)."""
        tracer = self.session.tracer
        record = {
            "unix": time.time(),
            "wall_s": time.perf_counter() - self.session.t0,
            "interval_s": self.interval_s,
            "cpu_s": time.process_time(),
            "rss_kb": current_rss_kb(),
            "peak_rss_kb": peak_rss_kb(),
            "open_span": tracer.open_path(),
            "pid": os.getpid(),
        }
        try:
            self.writer.write(record)
        except ValueError:
            # the session finished between the stop signal and this
            # sample; the row is lost, the stream stays well-formed
            pass

    def stop(self, timeout: float = 5.0) -> None:
        """Signal the thread and wait for it to exit."""
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=timeout)


# ----------------------------------------------------------------------
# read side: offset-resuming JSONL tails
# ----------------------------------------------------------------------
class JsonlTail:
    """Incremental reader of a growing ``.jsonl`` file.

    Each :meth:`poll` reads only the bytes appended since the previous
    poll — never the whole file again — and yields exactly the records
    completed (newline-terminated) since then.  A torn tail (the writer
    mid-record, or a reader racing the flush) stays buffered on disk:
    the offset does not advance past it, so the record is returned whole
    on a later poll, never split and never twice.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.offset = 0
        self.records_read = 0

    def poll(self) -> List[Dict[str, Any]]:
        """Newly completed records since the last poll ([] when none)."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self.offset)
                chunk = handle.read()
        except FileNotFoundError:
            return []
        if not chunk:
            return []
        records: List[Dict[str, Any]] = []
        consumed = 0
        for line in chunk.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break  # torn tail: leave it for the next poll
            consumed += len(line)
            text = line.strip()
            if not text:
                continue
            try:
                records.append(json.loads(text.decode("utf-8")))
            except (UnicodeDecodeError, ValueError):
                # a complete-but-corrupt line (killed writer): skip it
                # once — the offset has already moved past it
                continue
        self.offset += consumed
        self.records_read += len(records)
        return records


def tail_jsonl(path) -> JsonlTail:
    """An offset-resuming tail over ``path`` (see :class:`JsonlTail`)."""
    return JsonlTail(path)


# ----------------------------------------------------------------------
# read side: live watch state
# ----------------------------------------------------------------------
@dataclass
class StageStatus:
    """Latest view of one stage's heartbeat stream."""

    stage: str
    done: int = 0
    total: Optional[int] = None
    last_unix: float = 0.0
    heartbeats: int = 0
    #: Sliding window of (unix, done) pairs for the recent-window rate.
    window: List[tuple] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return self.total is not None and self.done >= self.total

    def recent_rate(self) -> Optional[float]:
        """Units/s over the sliding window of published records."""
        if len(self.window) < 2:
            return None
        (t_first, d_first), (t_last, d_last) = self.window[0], self.window[-1]
        if t_last <= t_first or d_last < d_first:
            return None
        return (d_last - d_first) / (t_last - t_first)

    def eta_s(self) -> Optional[float]:
        """Seconds to completion at the recent-window rate."""
        rate = self.recent_rate()
        if rate is None or rate <= 0 or self.total is None or self.complete:
            return None
        return (self.total - self.done) / rate

    def absorb(self, record: Dict[str, Any]) -> None:
        done = int(record.get("done", 0))
        if done < self.done:
            self.window.clear()  # the stage restarted (next run/policy)
        self.done = done
        total = record.get("total")
        self.total = int(total) if total is not None else None
        self.last_unix = float(record.get("unix", 0.0))
        self.heartbeats += 1
        self.window.append((self.last_unix, self.done))
        del self.window[:-_RATE_WINDOW]


def _format_duration(seconds: float) -> str:
    """Compact humane duration: ``3.2s``, ``4m10s``, ``2h03m``."""
    if seconds < 0:
        seconds = 0.0
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def _bar(done: int, total: Optional[int], width: int = 20) -> str:
    if total is None or total <= 0:
        return f"[{done:^{width}}]"
    filled = min(width, int(width * min(done, total) / total))
    return f"[{'#' * filled}{'.' * (width - filled)}]"


class WatchState:
    """Tailed view of an in-flight (or finished) trace directory.

    Owns one :class:`JsonlTail` per live stream; :meth:`poll` folds the
    newly appended records into per-stage statuses and the latest
    resource sample.  Pure read side: nothing here ever re-runs or
    blocks the writer.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.progress_tail = JsonlTail(self.root / "progress.jsonl")
        self.resource_tail = JsonlTail(self.root / "resources.jsonl")
        #: Stage name → status, in first-heartbeat order.
        self.stages: Dict[str, StageStatus] = {}
        self.latest_resource: Optional[Dict[str, Any]] = None
        self.resource_samples = 0

    @property
    def heartbeats(self) -> int:
        return self.progress_tail.records_read

    def poll(self) -> int:
        """Consume appended records; returns how many arrived."""
        new_progress = self.progress_tail.poll()
        for record in new_progress:
            stage = str(record.get("stage", "?"))
            status = self.stages.get(stage)
            if status is None:
                status = self.stages[stage] = StageStatus(stage)
            status.absorb(record)
        new_resources = self.resource_tail.poll()
        if new_resources:
            self.latest_resource = new_resources[-1]
        self.resource_samples += len(new_resources)
        return len(new_progress) + len(new_resources)

    def finished(self) -> bool:
        """A manifest means the session closed — the run is over."""
        return (self.root / "manifest.json").exists()

    # ------------------------------------------------------------------
    def stall(
        self,
        now_unix: Optional[float] = None,
        factor: float = STALL_FACTOR,
        stall_after: Optional[float] = None,
    ) -> Optional[str]:
        """A stall description, or ``None`` while the run looks alive.

        The resource sampler is the authoritative liveness signal: it
        ticks at a fixed interval whatever the simulation is doing, so
        ``factor`` × its interval of silence is a stall.  Without a
        sampler the newest heartbeat is used instead, with a
        :data:`PROGRESS_STALL_FLOOR_S` floor (progress intervals are
        rate *limits*, not promises).  ``stall_after`` overrides the
        derived budget outright.  Finished runs never stall; a directory
        with no signal yet is "waiting", not stalled.
        """
        if self.finished():
            return None
        now = time.time() if now_unix is None else now_unix
        if self.latest_resource is not None:
            age = now - float(self.latest_resource.get("unix", 0.0))
            budget = (
                stall_after
                if stall_after is not None
                else factor * float(self.latest_resource.get("interval_s", 1.0))
            )
            if age > budget:
                return (
                    f"no resource sample for {_format_duration(age)} "
                    f"(budget {_format_duration(budget)}; sampler interval "
                    f"{self.latest_resource.get('interval_s')}s)"
                )
            return None
        if self.stages:
            newest = max(s.last_unix for s in self.stages.values())
            age = now - newest
            intervals = [
                s
                for s in self.stages.values()
                if not s.complete
            ]
            budget = (
                stall_after
                if stall_after is not None
                else max(factor * PROGRESS_INTERVAL_S, PROGRESS_STALL_FLOOR_S)
            )
            if intervals and age > budget:
                return (
                    f"no heartbeat for {_format_duration(age)} "
                    f"(budget {_format_duration(budget)}; "
                    f"{len(intervals)} stage(s) unfinished)"
                )
        return None

    # ------------------------------------------------------------------
    def render(self, now_unix: Optional[float] = None) -> str:
        """The status table as text (one self-contained frame)."""
        now = time.time() if now_unix is None else now_unix
        state = "finished" if self.finished() else "in flight"
        lines = [
            f"watch {self.root} ({state}) — "
            f"{self.heartbeats} heartbeats, "
            f"{self.resource_samples} resource samples"
        ]
        if not self.stages:
            lines.append("  (no heartbeats yet — waiting for progress.jsonl)")
        else:
            lines.append(
                f"  {'stage':<28} {'progress':<33} "
                f"{'rate':>9} {'eta':>8} {'last':>9}"
            )
            for status in self.stages.values():
                total = "?" if status.total is None else f"{status.total}"
                counts = f"{status.done}/{total}"
                share = (
                    f"{status.done / status.total:4.0%}"
                    if status.total
                    else "  — "
                )
                rate = status.recent_rate()
                rate_text = f"{rate:8.1f}/s" if rate is not None else "       —"
                eta = status.eta_s()
                if status.complete:
                    eta_text = "    done"
                elif eta is not None:
                    eta_text = f"{_format_duration(eta):>8}"
                else:
                    eta_text = "       —"
                age = _format_duration(max(0.0, now - status.last_unix))
                lines.append(
                    f"  {status.stage:<28} "
                    f"{_bar(status.done, status.total)} {counts:>7} {share} "
                    f"{rate_text} {eta_text} {age:>5} ago"
                )
        sample = self.latest_resource
        if sample is not None:
            age = _format_duration(max(0.0, now - float(sample["unix"])))
            open_span = sample.get("open_span") or "(idle)"
            lines.append(
                f"  resources: rss {float(sample['rss_kb']) / 1024.0:.1f} MiB "
                f"(peak {float(sample['peak_rss_kb']) / 1024.0:.1f}) | "
                f"cpu {float(sample['cpu_s']):.1f} s | "
                f"open span {open_span} | sampled {age} ago"
            )
        return "\n".join(lines)


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
        for key in ("attrs", "counters"):
            if record.get(key):
                args[key] = record[key]
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
    from repro.obs.analysis import TraceRun, load_run

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
