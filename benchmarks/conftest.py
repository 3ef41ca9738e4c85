"""Benchmark harness plumbing.

Each bench target regenerates one of the paper's tables/figures via its
experiment module, measures wall time with pytest-benchmark (single
round — these are simulation pipelines, not microbenchmarks), prints the
paper-vs-measured report, and asserts the reproduction is within
tolerance.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.base import ExperimentOutput


def run_experiment_bench(benchmark, run, seed: int = 0) -> ExperimentOutput:
    """Benchmark one experiment run and validate its rows."""
    output = benchmark.pedantic(run, args=(seed,), rounds=1, iterations=1)
    print()
    print(output.render())
    failing = [row.name for row in output.rows if not row.ok]
    assert output.passed, f"rows outside tolerance: {failing}"
    return output


@pytest.fixture(scope="session", autouse=True)
def warm_scenario_cache():
    """Pre-simulate the shared week so the first bench isn't charged for it."""
    from repro.workloads.scenarios import olygamer_scenario

    scenario = olygamer_scenario(seed=0)
    scenario.population  # force the session-level week
    yield


@pytest.fixture(scope="session", autouse=True)
def append_perf_trajectory():
    """Append one perf record to ``BENCH_obs_<runner>.json`` after the run.

    Only when ``BENCH_RUNNER`` names the runner (the CI bench job sets
    ``BENCH_RUNNER=ci``): a plain test run must leave the working tree
    untouched.  The record (kernel packets/s, warm cache hit rate,
    matchmaking attempts/s, plus versions and git rev) lands in an
    append-only file at the repo root, so successive bench runs
    accumulate a machine-readable performance trajectory.  Failure to
    measure must never fail the bench suite itself, hence the broad guard.
    """
    yield
    runner = os.environ.get("BENCH_RUNNER")
    if not runner:
        return
    try:
        from repro.obs.bench import emit_bench_record

        path = emit_bench_record(runner=runner)
        print(f"\nperf trajectory appended: {path}")
    except Exception as error:  # pragma: no cover - best-effort telemetry
        print(f"\nperf trajectory skipped: {error!r}")
