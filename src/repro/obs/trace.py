"""Lightweight span tracer: nested wall-time / RSS records.

:func:`span` is the single instrumentation point used across the
codebase::

    with obs.span("fleet.shard", server=i):
        ...

When no tracer is installed (the default), :func:`span` returns a
shared stateless no-op object — one global read and an attribute call,
so instrumentation costs ~nothing when disabled.  When a tracer *is*
installed (``repro-experiments --trace-dir``), each span records wall
time (``perf_counter``), the process peak-RSS high-water mark at exit,
and its keyword attributes, nested under the enclosing span.

Observers read clocks and results only — never random streams — so
traced and untraced runs are bit-identical
(``tests/test_obs_noninvasive.py``).
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional

try:  # POSIX; absent only on exotic platforms
    import resource

    def peak_rss_kb() -> float:
        """Process peak resident set size so far, in KiB (monotone).

        ``getrusage`` reports ``ru_maxrss`` in KiB on Linux but in
        *bytes* on macOS — normalised here so manifests and resource
        samples are comparable across platforms.  (``sys.platform`` is
        read per call so tests can monkeypatch it.)
        """
        maxrss = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if sys.platform == "darwin":
            return maxrss / 1024.0
        return maxrss

except ImportError:  # pragma: no cover - non-POSIX fallback

    def peak_rss_kb() -> float:
        return 0.0


class NullSpan:
    """Shared stateless no-op span (tracing disabled)."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: The singleton returned by :func:`span` while no tracer is installed.
NULL_SPAN = NullSpan()


class Span:
    """One timed region; context-manager protocol, may nest."""

    __slots__ = (
        "tracer",
        "name",
        "attrs",
        "start_s",
        "wall_s",
        "peak_rss_kb",
        "children",
        "span_id",
        "parent_id",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start_s = 0.0
        self.wall_s = 0.0
        self.peak_rss_kb = 0.0
        self.children: List["Span"] = []
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall_s = time.perf_counter() - self.start_s
        self.peak_rss_kb = peak_rss_kb()
        self.tracer._pop(self)
        return False

    def record(self, depth: int = 0, path: str = "") -> Dict[str, Any]:
        """This span as a flat JSON-safe dict (children not included)."""
        path = f"{path}/{self.name}" if path else self.name
        out: Dict[str, Any] = {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "path": path,
            "depth": depth,
            "start_s": round(self.start_s - self.tracer.epoch_s, 9),
            "wall_s": round(self.wall_s, 9),
            "peak_rss_kb": self.peak_rss_kb,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    """Collects a forest of spans for one trace session.

    Spans carry process-unique integer ids assigned at entry, so the
    flat ``spans.jsonl`` records are a forest by ``(id, parent)`` —
    including *absorbed* records shipped back from worker subprocesses
    (:meth:`absorb`), which are re-identified into this tracer's id
    space and parented under the span open at merge time.
    """

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        #: Flat records absorbed from worker tracers (already closed).
        self.foreign: List[Dict[str, Any]] = []
        self._next_id = 0
        #: perf_counter origin — span start times are relative to this.
        self.epoch_s = time.perf_counter()

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span, parented under the innermost open one."""
        return Span(self, name, attrs)

    def _push(self, span: Span) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        if self._stack:
            span.parent_id = self._stack[-1].span_id
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # tolerate out-of-order exits rather than corrupting the stack
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - misuse guard
            self._stack.remove(span)

    def absorb(self, records: List[Dict[str, Any]], **extra: Any) -> None:
        """Merge a worker tracer's flat records under the open span.

        ``records`` is the worker-side :meth:`records` output for one
        task: ids are re-mapped into this tracer's id space, paths and
        depths are prefixed with the currently open span stack, and
        ``extra`` key/values (e.g. ``worker_pid``, ``task_index``) are
        stamped onto every record for attribution.
        """
        prefix = "/".join(span.name for span in self._stack)
        parent_id = self._stack[-1].span_id if self._stack else None
        depth0 = len(self._stack)
        id_map: Dict[Any, int] = {}
        for record in records:
            merged = dict(record)
            new_id = self._next_id
            self._next_id += 1
            if "id" in merged:
                id_map[merged["id"]] = new_id
            merged["id"] = new_id
            merged["parent"] = id_map.get(merged.get("parent"), parent_id)
            if prefix:
                merged["path"] = f"{prefix}/{merged['path']}"
            merged["depth"] = merged.get("depth", 0) + depth0
            merged.update(extra)
            self.foreign.append(merged)

    def records(self) -> List[Dict[str, Any]]:
        """Every *closed* span, depth-first, as flat JSON-safe dicts —
        the process-local forest first, then absorbed worker records."""
        out: List[Dict[str, Any]] = []

        def walk(span: Span, depth: int, path: str) -> None:
            record = span.record(depth, path)
            out.append(record)
            for child in span.children:
                walk(child, depth + 1, record["path"])

        open_spans = set(map(id, self._stack))
        for root in self.roots:
            if id(root) not in open_spans:
                walk(root, 0, "")
        out.extend(self.foreign)
        return out


#: The installed tracer (None = tracing disabled, spans are no-ops).
_tracer: Optional[Tracer] = None


def install_tracer(tracer: Optional[Tracer]) -> None:
    """Install (or, with ``None``, remove) the process-wide tracer."""
    global _tracer
    _tracer = tracer


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, if any."""
    return _tracer


def span(name: str, **attrs: Any):
    """A span under the installed tracer, or the shared no-op."""
    tracer = _tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)
