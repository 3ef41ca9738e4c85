#!/usr/bin/env python
"""Compare two traced runs — regression triage from artifacts alone.

Traces the matchmaking experiment twice (a baseline and a "candidate"
with a different placement policy), then diffs the two artifact
directories with :func:`repro.obs.analysis.compare`: provenance first
(are these even comparable runs?), then every metric total that moved.
Finishes with :func:`~repro.obs.analysis.check_bench_trajectory` on a
synthetic ``BENCH_obs_*.json`` file — the same check CI's bench-smoke
job runs as a soft-fail gate.

The CLI equivalent::

    repro-analyze compare baseline/ candidate/ --bench BENCH_obs_ci.json

Usage::

    python examples/analyze_trace.py [work_dir]
"""

import json
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


def bench_gate(work_dir: Path) -> None:
    """The CI soft-fail gate, on a synthetic perf trajectory."""
    bench = work_dir / "BENCH_obs_example.json"
    bench.write_text(json.dumps({
        "records": [
            {"kernel_pps": 2.1e6, "cache_hit_rate_warm": 1.0},
            {"kernel_pps": 2.2e6, "cache_hit_rate_warm": 1.0},
            {"kernel_pps": 2.0e6, "cache_hit_rate_warm": 1.0},
            # the newest record: kernel throughput fell off a cliff
            {"kernel_pps": 1.2e6, "cache_hit_rate_warm": 1.0},
        ]
    }))
    regressions = analysis.check_bench_trajectory(bench, threshold=0.2)
    print(f"bench trajectory {bench.name}: ", end="")
    if not regressions:
        print("no regression beyond 20% of the prior median")
    for regression in regressions:
        # CI prints these as ::warning :: annotations and still exits 0
        print(f"REGRESSED — {regression.describe()}")


def main() -> None:
    def run(work_dir: Path) -> None:
        baseline = trace_policy(work_dir / "baseline", "least_loaded")
        candidate = trace_policy(work_dir / "candidate", "latency_aware")
        diff_runs(baseline, candidate)
        bench_gate(work_dir)

    if len(sys.argv) > 1:
        run(Path(sys.argv[1]))
        return
    with tempfile.TemporaryDirectory(prefix="analyze-trace-") as work_dir:
        run(Path(work_dir))


if __name__ == "__main__":
    main()
