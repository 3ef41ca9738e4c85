"""Sharded worker telemetry: pool runs report like serial runs.

When a trace session is active, :func:`repro.fleet.execution.
shard_map_fold` runs each submitted task under a per-worker tracer and
ships span records + metric deltas back on the task's future.  These
tests pin the contract end to end:

* manifest metric totals are *equal* between ``workers=1`` (serial
  branch, live spans) and ``workers=N`` (pool, shipped deltas) — the
  regression this suite exists for: worker-side work used to vanish
  from the totals;
* worker span records land in ``spans.jsonl`` with ``worker_pid`` /
  ``task_index`` attribution and correct ``(id, parent)`` links under
  the parent's ``fleet.shard_map`` span;
* results stay bit-identical traced vs untraced, serial vs sharded;
* the read side (:mod:`repro.obs.analysis`) re-derives the sharded
  totals from the artifacts alone.
"""

import os

import pytest

from repro import obs
from repro.fleet.execution import (
    SeriesTask,
    _chunk_size,
    fleet_server_seed,
    shard_map,
    shard_map_fold,
    simulate_series,
)
from repro.fleet.profiles import hosting_facility
from repro.gameserver.fluid import fluid_series_equal
from repro.obs import analysis
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.export import load_manifest

SEED = 5
N_SERVERS = 4
HORIZON = 1800.0


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """No leaked session/tracer across tests, whatever happens inside."""
    yield
    if obs.current_session() is not None:
        obs.end_trace_session()
    obs.trace.install_tracer(None)


def _series_tasks():
    fleet = hosting_facility(
        n_servers=N_SERVERS, duration=HORIZON, seed=SEED
    )
    return tuple(
        SeriesTask(
            profile=profile, seed=fleet_server_seed(fleet.seed, index)
        )
        for index, profile in enumerate(fleet.server_profiles())
    )


def _run_sharded(workers):
    return shard_map_fold(
        simulate_series,
        _series_tasks(),
        lambda acc, series: (acc.append(series) or acc),
        [],
        workers=workers,
    )


def _traced_run(root, workers):
    obs.start_trace_session(root, seed=SEED, workers=workers)
    try:
        result = _run_sharded(workers)
    finally:
        obs.end_trace_session()
    return result, load_manifest(root)


class TestManifestTotals:
    def test_totals_equal_across_worker_counts(self, tmp_path):
        """The headline regression: sharded totals == serial totals.

        Worker-side metrics are integer counters, so merged per-task
        deltas reproduce the serial observation exactly — not just
        approximately.
        """
        _, serial = _traced_run(tmp_path / "w1", workers=1)
        _, sharded = _traced_run(tmp_path / "w4", workers=4)

        assert serial["metrics"] == sharded["metrics"]

    def test_worker_side_counters_present(self, tmp_path):
        """Guard against the trivial pass where nothing is counted."""
        _, manifest = _traced_run(tmp_path / "w4", workers=4)

        totals = manifest["metrics"]
        assert totals["fleet.tasks"] == N_SERVERS
        assert totals["scenario.populations"] == N_SERVERS
        assert totals["scenario.series_built"] == N_SERVERS
        assert totals["scenario.sessions"] > 0


class TestWorkerSpans:
    def test_spans_attributed_and_linked(self, tmp_path):
        _traced_run(tmp_path / "w4", workers=4)
        run = analysis.load_run(tmp_path / "w4")

        workers = run.forest.worker_nodes()
        assert len(workers) == N_SERVERS
        assert sorted(node.task_index for node in workers) == list(
            range(N_SERVERS)
        )
        # real subprocesses, not the parent
        assert all(node.worker_pid != os.getpid() for node in workers)
        # absorbed under the parent's shard_map span with resolved links
        shard_maps = [
            node for node in run.forest if node.name == "fleet.shard_map"
        ]
        assert len(shard_maps) == 1
        assert sorted(
            child.task_index for child in shard_maps[0].children
        ) == list(range(N_SERVERS))
        # worker children (the scenario spans) came along, attributed too
        nested = [
            node
            for node in run.forest
            if node.worker_pid is not None and node.name == "scenario.series"
        ]
        assert len(nested) == N_SERVERS
        assert all(
            node.path.endswith("fleet.worker_task/scenario.series")
            for node in nested
        )

    def test_serial_branch_has_no_worker_records(self, tmp_path):
        _traced_run(tmp_path / "w1", workers=1)
        run = analysis.load_run(tmp_path / "w1")

        assert run.forest.worker_nodes() == []
        assert any(node.name == "fleet.shard" for node in run.forest)


def _counted_work(task: int) -> int:
    """A light task that opens a span and bumps a counter by its own value."""
    with obs_trace.span("test.chunk_work", value=task):
        obs_metrics.registry().counter("test.chunk_work").inc(task)
    return task


class TestChunkedTelemetry:
    def test_each_task_of_a_chunk_ships_its_own_span_and_deltas(self, tmp_path):
        n_tasks, workers = 40, 2
        assert _chunk_size(n_tasks, workers) == 3  # several tasks per future
        obs.start_trace_session(tmp_path, seed=SEED, workers=workers)
        try:
            result = shard_map(_counted_work, list(range(n_tasks)), workers=workers)
        finally:
            obs.end_trace_session()
        assert result == list(range(n_tasks))
        run = analysis.load_run(tmp_path)

        nodes = run.forest.worker_nodes()
        assert sorted(node.task_index for node in nodes) == list(range(n_tasks))
        for node in nodes:
            # the root worker span carries this task's delta alone
            delta = node.metrics.get("test.chunk_work", {})
            assert delta.get("value", 0) == node.task_index
            (child,) = node.children
            assert child.name == "test.chunk_work"
            assert child.task_index == node.task_index
        assert run.metric_totals["test.chunk_work"] == sum(range(n_tasks))


class TestBitIdentity:
    def test_results_identical_traced_sharded_vs_untraced_serial(
        self, tmp_path
    ):
        baseline = _run_sharded(workers=1)
        traced, _ = _traced_run(tmp_path / "w4", workers=4)

        assert len(baseline) == len(traced)
        for a, b in zip(baseline, traced):
            assert fluid_series_equal(a, b)


class TestReadSideDerivation:
    def test_worker_deltas_rederive_manifest_totals(self, tmp_path):
        """Every derivable total matches the manifest, from disk alone."""
        _traced_run(tmp_path / "w4", workers=4)
        run = analysis.load_run(tmp_path / "w4")

        rows = analysis.verify_metric_totals(run)
        assert rows  # something was derivable
        assert all(ok for _, _, _, ok in rows), rows
        derived = dict(
            (name, value) for name, value, _, ok in rows if ok
        )
        assert derived["scenario.sessions"] == run.metric_totals[
            "scenario.sessions"
        ]

    def test_worker_metric_totals_cover_only_worker_work(self, tmp_path):
        _traced_run(tmp_path / "w4", workers=4)
        run = analysis.load_run(tmp_path / "w4")

        totals = analysis.worker_metric_totals(run)
        # fleet.tasks is bumped in the parent, never in a worker
        assert "fleet.tasks" not in totals
        assert totals["scenario.series_built"] == N_SERVERS
