#!/usr/bin/env python
"""Compare two traced runs — regression triage from artifacts alone.

Traces the matchmaking experiment twice (a baseline and a "candidate"
with a different placement policy), then diffs the two artifact
directories with :func:`repro.obs.analysis.compare`: provenance first
(are these even comparable runs?), then every metric total that moved.

The CLI equivalent::

    repro-analyze compare baseline/ candidate/

Usage::

    python examples/analyze_trace.py [work_dir]
"""

import sys
import tempfile
from pathlib import Path

from repro import obs
from repro.experiments.base import RunConfig
from repro.experiments.runner import config_fingerprint, run_experiments
from repro.obs import analysis


def trace_policy(root: Path, policy: str, seed: int = 0) -> analysis.TraceRun:
    """One traced matchmaking run, pinned to a placement policy."""
    ids = ["matchmaking"]
    config = RunConfig(policy=policy)
    obs.start_trace_session(
        root,
        seed=seed,
        experiments=ids,
        config_fingerprint=config_fingerprint(ids, seed, config),
    )
    try:
        run_experiments(ids, seed=seed, config=config)
    finally:
        obs.end_trace_session()
    return analysis.load_run(root)


def diff_runs(baseline: analysis.TraceRun, candidate: analysis.TraceRun):
    comparison = analysis.compare(baseline, candidate)
    print(comparison.render())
    print()
    if not comparison.comparable:
        print(
            "note: the config fingerprints differ (here: the policy), so "
            "diverging totals are expected — the diff shows *what* the "
            "candidate changed, not that something broke"
        )
    biggest = max(
        (d for d in comparison.changed_metrics()
         if d.relative_change is not None),
        key=lambda d: abs(d.relative_change),
        default=None,
    )
    if biggest is not None:
        print(
            f"largest mover: {biggest.name} "
            f"({biggest.a!r} -> {biggest.b!r}, "
            f"{biggest.relative_change:+.1%})"
        )
    print()


def main() -> None:
    def run(work_dir: Path) -> None:
        baseline = trace_policy(work_dir / "baseline", "least_loaded")
        candidate = trace_policy(work_dir / "candidate", "latency_aware")
        diff_runs(baseline, candidate)

    if len(sys.argv) > 1:
        run(Path(sys.argv[1]))
        return
    with tempfile.TemporaryDirectory(prefix="analyze-trace-") as work_dir:
        run(Path(work_dir))


if __name__ == "__main__":
    main()
