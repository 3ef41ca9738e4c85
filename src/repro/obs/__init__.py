"""repro.obs — deterministic telemetry: spans, metrics, artifacts.

Four layers, each usable alone:

* :mod:`repro.obs.trace` — a nested span tracer
  (``with obs.span("fleet.shard", server=i): ...``) recording wall
  time, peak RSS and attributes; a shared no-op when disabled;
* :mod:`repro.obs.metrics` — a process-local registry of counters and
  histograms the cache, kernels, matchmaker and facility network
  publish into;
* :mod:`repro.obs.export` — a streaming JSON-lines exporter, ``.npz``
  array snapshots and the per-run :class:`~repro.obs.export.TraceSession`
  (artifact directory + manifest);
* :mod:`repro.obs.analysis` — the read side: load a finished (or
  killed) trace directory into typed run objects, rebuild the span
  forest (including worker-task records shipped back from sharded
  subprocesses), roll up phases, extract the critical path, fold
  occupancy × region × epoch heatmaps and the occupancy–RTT frontier
  from artifacts, compare runs and export the span forest as
  Chrome/Perfetto trace events (``repro-analyze``).

The load-bearing invariant: **telemetry is provably non-invasive**.
Observers read results and clocks but never touch RNG state, so every
seeded stream — and every golden/parity suite — is bit-identical with
tracing on, off, or toggled mid-process
(``tests/test_obs_noninvasive.py``).

Enable per run with ``repro-experiments --trace-dir DIR`` or
programmatically::

    from repro import obs

    session = obs.start_trace_session("artifacts/", seed=0)
    ...  # run anything: spans + streams land in artifacts/
    manifest = obs.end_trace_session()
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional

from repro.obs.export import (
    JsonlWriter,
    TraceSession,
    fingerprint,
    git_revision,
    load_manifest,
    read_jsonl,
    to_jsonable,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    registry,
    reset_metrics,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    current_tracer,
    install_tracer,
    span,
)
from repro.obs import analysis
from repro.obs.analysis import (
    SpanForest,
    TraceRun,
    compare,
    export_chrome_trace,
    load_run,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "Histogram",
    "JsonlWriter",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "SpanForest",
    "TraceRun",
    "Tracer",
    "TraceSession",
    "analysis",
    "compare",
    "current_session",
    "load_run",
    "current_tracer",
    "end_trace_session",
    "export_chrome_trace",
    "fingerprint",
    "git_revision",
    "install_tracer",
    "load_manifest",
    "read_jsonl",
    "registry",
    "reset_metrics",
    "span",
    "start_trace_session",
    "to_jsonable",
    "write_chrome_trace",
]

#: The active per-run session (None = telemetry disabled).
_session: Optional[TraceSession] = None


def start_trace_session(root, **info: Any) -> TraceSession:
    """Open a trace session writing artifacts under ``root``.

    Installs the session's tracer (so :func:`span` records) and zeroes
    the process metrics registry, making the manifest's metric totals
    per-run.  Keyword arguments land verbatim in the manifest.
    """
    global _session
    if _session is not None:
        raise RuntimeError(
            f"a trace session is already active ({_session.root})"
        )
    reset_metrics()
    session = TraceSession(root, info)
    install_tracer(session.tracer)
    _session = session
    return session


def current_session() -> Optional[TraceSession]:
    """The active trace session, if any (instrumentation hook)."""
    return _session


def end_trace_session() -> Optional[Path]:
    """Finish the active session; return its manifest path (or None)."""
    global _session
    if _session is None:
        return None
    session = _session
    _session = None
    install_tracer(None)
    return session.finish(registry().snapshot())
