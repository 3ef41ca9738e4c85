"""The read side: trace directories load back faithfully.

:mod:`repro.obs.analysis` must reconstruct what the writer observed —
span forests with correct links, metric totals, facility heatmaps —
from the artifact files alone, and must tolerate the streaming
contract's failure mode (a torn final line from a killed writer) at
*any* truncation offset.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs import analysis
from repro.obs.analysis import SpanForest
from repro.obs.export import read_jsonl


@pytest.fixture(autouse=True)
def _clean_obs_state():
    yield
    if obs.current_session() is not None:
        obs.end_trace_session()
    obs.trace.install_tracer(None)


def _record(rid, parent, name, start, wall, depth=0, **extra):
    merged = {
        "id": rid,
        "parent": parent,
        "name": name,
        "path": name,
        "depth": depth,
        "start_s": start,
        "wall_s": wall,
        "peak_rss_kb": 0.0,
    }
    merged.update(extra)
    return merged


class TestSpanForest:
    def _forest(self):
        # run(10s) -> [phase_a(6s) -> leaf(5s), phase_b(3s)]
        return SpanForest.from_records(
            [
                _record(0, None, "run", 0.0, 10.0),
                _record(1, 0, "phase_a", 0.0, 6.0, depth=1),
                _record(2, 1, "leaf", 0.5, 5.0, depth=2),
                _record(3, 0, "phase_b", 6.0, 3.0, depth=1),
            ]
        )

    def test_linking_and_iteration(self):
        forest = self._forest()
        assert len(forest) == 4
        assert [node.name for node in forest.roots] == ["run"]
        assert [node.name for node in forest] == [
            "run", "phase_a", "leaf", "phase_b",
        ]

    def test_self_wall_excludes_children(self):
        forest = self._forest()
        run = forest.roots[0]
        assert run.self_wall_s == pytest.approx(10.0 - 6.0 - 3.0)
        phase_a = run.children[0]
        assert phase_a.self_wall_s == pytest.approx(1.0)

    def test_rollup_heaviest_first(self):
        rollups = self._forest().rollup()
        assert [r.name for r in rollups] == [
            "run", "phase_a", "leaf", "phase_b",
        ]
        run = rollups[0]
        assert run.calls == 1
        assert run.share == pytest.approx(1.0)

    def test_critical_path_greedy_descent(self):
        path = self._forest().critical_path()
        assert [node.name for node in path] == ["run", "phase_a", "leaf"]

    def test_v1_fallback_without_ids(self):
        """Legacy records link by the depth/file-order walk invariant."""
        records = [
            {"name": "run", "depth": 0, "wall_s": 2.0},
            {"name": "child", "depth": 1, "wall_s": 1.0},
            {"name": "second_root", "depth": 0, "wall_s": 0.5},
        ]
        forest = SpanForest.from_records(records)
        assert [node.name for node in forest.roots] == [
            "run", "second_root",
        ]
        assert [c.name for c in forest.roots[0].children] == ["child"]


class TestTornTail:
    def _write_session(self, root):
        obs.start_trace_session(root, seed=0)
        for index in range(8):
            with obs.span("work", index=index):
                with obs.span("sub"):
                    pass
        obs.end_trace_session()

    def test_recovers_complete_records_at_any_offset(self, tmp_path):
        """Truncate spans.jsonl at every byte offset: every complete
        line is kept, the torn tail is skipped, nothing raises."""
        self._write_session(tmp_path / "trace")
        path = tmp_path / "trace" / "spans.jsonl"
        raw = path.read_bytes()
        full = read_jsonl(path)
        assert len(full) == 16  # 8 × (work + sub)

        torn = tmp_path / "torn.jsonl"
        # every offset is cheap enough to sweep exhaustively
        for offset in range(len(raw) + 1):
            torn.write_bytes(raw[:offset])
            recovered = read_jsonl(torn)
            expected = raw[:offset].count(b"\n")
            # a cut landing exactly before a newline leaves a final
            # line that is itself complete — the reader keeps it
            tail = raw[:offset].rsplit(b"\n", 1)[-1]
            if tail:
                try:
                    json.loads(tail)
                    expected += 1
                except ValueError:
                    pass
            assert len(recovered) == expected, f"offset {offset}"
            assert recovered == full[:expected]

    def test_loader_tolerates_torn_spans(self, tmp_path):
        self._write_session(tmp_path / "trace")
        path = tmp_path / "trace" / "spans.jsonl"
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])  # tear the last record

        run = analysis.load_run(tmp_path / "trace")
        assert len(run.spans) == 15
        assert len(run.forest) == 15

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError, match="manifest.json"):
            analysis.load_run(tmp_path / "empty")

    def test_tail_recovers_full_sequence_at_any_offset(self, tmp_path):
        """The every-byte-offset sweep, for the live tail reader: a tail
        that saw the file truncated at *any* offset, then the rest, must
        deliver exactly the writer's record sequence — no torn record,
        no duplicate, no loss."""
        from repro.obs.live import tail_jsonl

        self._write_session(tmp_path / "trace")
        path = tmp_path / "trace" / "spans.jsonl"
        raw = path.read_bytes()
        full = read_jsonl(path)

        partial = tmp_path / "partial.jsonl"
        for offset in range(len(raw) + 1):
            partial.write_bytes(raw[:offset])
            tail = tail_jsonl(partial)
            first = tail.poll()
            partial.write_bytes(raw)  # writer completes the file
            second = tail.poll()
            assert first + second == full, f"offset {offset}"


class TestCompare:
    def _session(self, root, seed, amount):
        obs.start_trace_session(root, seed=seed)
        obs.registry().counter("test.things").inc(amount)
        obs.end_trace_session()
        return analysis.load_run(root)

    def test_identical_runs_compare_clean(self, tmp_path):
        run_a = self._session(tmp_path / "a", seed=0, amount=2)
        run_b = self._session(tmp_path / "b", seed=0, amount=2)

        comparison = analysis.compare(run_a, run_b)
        assert comparison.comparable
        assert comparison.changed_metrics() == []
        assert "identical" in comparison.render()

    def test_diverging_runs_flag_provenance_and_metrics(self, tmp_path):
        run_a = self._session(tmp_path / "a", seed=0, amount=2)
        run_b = self._session(tmp_path / "b", seed=1, amount=3)

        comparison = analysis.compare(run_a, run_b)
        assert comparison.provenance["seed"] == (0, 1)
        changed = comparison.changed_metrics()
        assert [diff.name for diff in changed] == ["test.things"]
        assert changed[0].relative_change == pytest.approx(0.5)
        assert "test.things" in comparison.render()


class TestFacilityViews:
    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        from repro.fleet.profiles import hosting_facility
        from repro.matchmaking import PoolConfig, simulate_matchmaking

        root = tmp_path_factory.mktemp("facility") / "trace"
        fleet = hosting_facility(n_servers=3, duration=900.0, seed=3)
        config = PoolConfig.for_fleet(
            fleet,
            demand_ratio=3.0,
            epoch_length=60.0,
            session_duration_mean=180.0,
            session_duration_min=5.0,
        )
        obs.start_trace_session(root, seed=3)
        try:
            simulate_matchmaking(fleet, "latency_aware", config)
        finally:
            obs.end_trace_session()
        return analysis.load_run(root)

    def test_heatmap_folds_occupancy_by_region(self, traced_run):
        heatmaps = analysis.occupancy_heatmaps(traced_run)
        assert list(heatmaps) == ["latency_aware"]
        heatmap = heatmaps["latency_aware"]

        raw = traced_run.arrays("matchmaking_occupancy_latency_aware")
        assert heatmap.matrix.shape == (
            len(heatmap.region_names),
            raw["occupancy"].shape[1],
        )
        # folding by region loses nothing: totals are conserved
        assert heatmap.matrix.sum() == raw["occupancy"].sum()
        assert heatmap.capacities.sum() == raw["capacities"].sum()
        utilization = heatmap.utilization()
        assert np.all(utilization >= 0.0)
        assert np.all(utilization <= 1.0)

    def test_frontier_from_artifacts(self, traced_run):
        frontier = analysis.occupancy_rtt_frontier(traced_run)
        assert [point.policy for point in frontier] == ["latency_aware"]
        point = frontier[0]
        assert 0.0 < point.utilization <= 1.0
        assert point.sessions > 0
        assert np.isfinite(point.mean_rtt_ms) and point.mean_rtt_ms > 0
