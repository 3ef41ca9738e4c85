"""The read side: trace directories load back faithfully.

:mod:`repro.obs.analysis` must reconstruct what the writer observed —
span forests with correct links, metric totals, facility heatmaps —
from the artifact files alone, and must tolerate the streaming
contract's failure mode (a torn final line from a killed writer) at
*any* truncation offset.  The chrome-trace export must round-trip
every span exactly once onto its worker's track.
"""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import obs
from repro.obs import analysis
from repro.obs.analysis import (
    MAIN_TRACK,
    SpanForest,
    chrome_trace_events,
    export_chrome_trace,
    write_chrome_trace,
)
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

    def test_empty_file_has_no_records(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        assert read_jsonl(path) == []

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('\n{"a": 1}\n\n   \n{"a": 2}\n\n')
        assert read_jsonl(path) == [{"a": 1}, {"a": 2}]

    def test_crlf_line_endings_read_alike(self, tmp_path):
        path = tmp_path / "crlf.jsonl"
        path.write_bytes(b'{"a": 1}\r\n{"a": 2}\r\n')
        assert read_jsonl(path) == [{"a": 1}, {"a": 2}]

    def test_reading_stops_at_the_first_corrupt_line(self, tmp_path):
        # a writer appends whole lines, so a line that does not parse is
        # where a killed run's output ends: nothing after it is trusted
        path = tmp_path / "corrupt.jsonl"
        path.write_text('{"a": 1}\n{"a": \n{"a": 3}\n')
        assert read_jsonl(path) == [{"a": 1}]


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


class TestChromeTraceExport:
    def test_events_round_trip_span_records(self):
        records = [
            {"id": 0, "parent": None, "name": "run", "path": "run",
             "depth": 0, "start_s": 0.0, "wall_s": 2.0, "peak_rss_kb": 1.0},
            {"id": 1, "parent": 0, "name": "phase", "path": "run/phase",
             "depth": 1, "start_s": 0.5, "wall_s": 1.0, "peak_rss_kb": 1.0,
             "attrs": {"k": "v"}},
            {"id": 2, "parent": 0, "name": "fleet.worker_task",
             "path": "run/fleet.worker_task", "depth": 1, "start_s": 0.6,
             "wall_s": 0.5, "peak_rss_kb": 1.0, "worker_pid": 4242,
             "task_index": 7},
        ]
        events = chrome_trace_events(records)
        spans = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(spans) == len(records)

        assert spans[0]["tid"] == 0 and spans[1]["tid"] == 0
        assert spans[2]["tid"] == 4242
        assert spans[1]["ts"] == pytest.approx(0.5e6)
        assert spans[1]["dur"] == pytest.approx(1.0e6)
        assert spans[1]["args"]["attrs"] == {"k": "v"}
        assert spans[2]["args"]["task_index"] == 7

        names = {
            (e["tid"], e["args"]["name"])
            for e in meta
            if e["name"] == "thread_name"
        }
        assert (0, "main") in names
        assert (4242, "worker 4242") in names

    def test_export_of_sharded_run(self, tmp_path):
        """Acceptance: a --workers 4 run round-trips — every span in
        spans.jsonl appears exactly once, with matching duration, on its
        worker's track."""
        from repro.fleet.profiles import hosting_facility
        from repro.fleet.scenario import FleetScenario

        root = tmp_path / "trace"
        obs.start_trace_session(root, seed=5)
        try:
            fleet = hosting_facility(n_servers=4, duration=1800.0, seed=5)
            FleetScenario(fleet).aggregate_per_second(workers=4)
        finally:
            obs.end_trace_session()

        document = export_chrome_trace(root)
        spans = obs.read_jsonl(root / "spans.jsonl")
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(events) == len(spans)
        by_id = {e["args"]["span_id"]: e for e in events}
        assert len(by_id) == len(spans)  # each span exactly once
        worker_pids = set()
        for record in spans:
            event = by_id[record["id"]]
            assert event["name"] == record["name"]
            assert event["dur"] == pytest.approx(record["wall_s"] * 1e6)
            expected_tid = record.get("worker_pid", 0) or 0
            assert event["tid"] == expected_tid
            if record.get("worker_pid") is not None:
                worker_pids.add(record["worker_pid"])
        assert worker_pids  # sharded run: worker tracks exist
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        for pid in worker_pids:
            assert thread_names[pid] == f"worker {pid}"
        json.dumps(document)  # the document itself must be JSON-safe


def _worker_record(rid, pid, **extra):
    return _record(rid, 0, "fleet.worker_task", 0.1 * rid, 0.05, depth=1,
                   worker_pid=pid, task_index=rid, **extra)


def _thread_names(events):
    return [
        (e["tid"], e["args"]["name"])
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    ]


class TestChromeTraceEvents:
    """:func:`chrome_trace_events` on synthetic span records."""

    def test_no_records_give_the_process_track_only(self):
        events = chrome_trace_events([])
        assert events == [
            {
                "ph": "M",
                "name": "process_name",
                "pid": 1,
                "tid": MAIN_TRACK,
                "args": {"name": "repro traced run"},
            }
        ]

    @pytest.mark.parametrize(
        "name, category",
        [
            ("experiment", "experiment"),
            ("fleet.worker_task", "fleet"),
            ("matchmaking.columnar.epochs", "matchmaking"),
            ("gameserver.packets", "gameserver"),
        ],
    )
    def test_category_is_the_name_prefix(self, name, category):
        (event,) = [
            e for e in chrome_trace_events([_record(0, None, name, 0.0, 1.0)])
            if e["ph"] == "X"
        ]
        assert event["name"] == name
        assert event["cat"] == category

    @pytest.mark.parametrize(
        "start_s, wall_s",
        [(0.0, 0.0), (0.5, 1.0), (2e-6, 3e-6), (3600.0, 12.25)],
    )
    def test_times_are_microseconds(self, start_s, wall_s):
        (event,) = [
            e
            for e in chrome_trace_events(
                [_record(0, None, "run", start_s, wall_s)]
            )
            if e["ph"] == "X"
        ]
        assert event["ts"] == pytest.approx(start_s * 1e6)
        assert event["dur"] == pytest.approx(wall_s * 1e6)

    def test_missing_fields_take_defaults(self):
        (event,) = [e for e in chrome_trace_events([{}]) if e["ph"] == "X"]
        assert event["name"] == "?"
        assert event["cat"] == "?"
        assert event["ts"] == 0.0 and event["dur"] == 0.0
        assert event["tid"] == MAIN_TRACK
        assert event["args"] == {"path": None, "span_id": None, "parent": None}

    def test_one_track_per_worker_pid(self):
        records = [_record(0, None, "run", 0.0, 1.0)] + [
            _worker_record(rid, pid)
            for rid, pid in enumerate((700, 700, 31, 700, 31), start=1)
        ]
        events = chrome_trace_events(records)
        names = _thread_names(events)
        assert sorted(names) == [
            (MAIN_TRACK, "main"), (31, "worker 31"), (700, "worker 700")
        ]
        tids = [e["tid"] for e in events if e["ph"] == "X"]
        assert tids == [MAIN_TRACK, 700, 700, 31, 700, 31]

    def test_lanes_sort_main_first_then_by_pid(self):
        records = [
            _worker_record(1, 900),
            _record(0, None, "run", 0.0, 1.0),
            _worker_record(2, 12),
        ]
        events = chrome_trace_events(records)
        sort_index = {
            e["tid"]: e["args"]["sort_index"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_sort_index"
        }
        assert sort_index == {MAIN_TRACK: 0, 12: 13, 900: 901}
        assert [tid for tid, _ in _thread_names(events)] == [MAIN_TRACK, 12, 900]

    def test_metadata_precedes_span_events(self):
        records = [_record(0, None, "run", 0.0, 1.0), _worker_record(1, 5)]
        phases = [e["ph"] for e in chrome_trace_events(records)]
        first_span = phases.index("X")
        assert set(phases[:first_span]) == {"M"}
        assert set(phases[first_span:]) == {"X"}

    def test_span_events_keep_record_order(self):
        records = [
            _record(rid, None, f"phase{rid}", 10.0 - rid, 0.5)
            for rid in range(6)
        ]
        spans = [e for e in chrome_trace_events(records) if e["ph"] == "X"]
        assert [e["args"]["span_id"] for e in spans] == list(range(6))

    def test_every_event_shares_one_process(self):
        records = [_record(0, None, "run", 0.0, 1.0), _worker_record(1, 8)]
        assert {e["pid"] for e in chrome_trace_events(records)} == {1}

    def test_only_worker_spans_carry_a_task_index(self):
        records = [_record(0, None, "run", 0.0, 1.0), _worker_record(3, 8)]
        main, worker = [
            e for e in chrome_trace_events(records) if e["ph"] == "X"
        ]
        assert "task_index" not in main["args"]
        assert worker["args"]["task_index"] == 3

    def test_empty_attrs_are_left_out(self):
        records = [
            _record(0, None, "run", 0.0, 1.0, attrs={}),
            _record(1, None, "run", 1.0, 1.0, attrs={"id": "fig3"}),
        ]
        bare, tagged = [
            e for e in chrome_trace_events(records) if e["ph"] == "X"
        ]
        assert "attrs" not in bare["args"]
        assert tagged["args"]["attrs"] == {"id": "fig3"}

    def test_args_link_each_span_to_its_parent(self):
        records = [
            _record(0, None, "run", 0.0, 2.0),
            _record(1, 0, "phase", 0.5, 1.0, depth=1, path="run/phase"),
        ]
        _, child = [e for e in chrome_trace_events(records) if e["ph"] == "X"]
        assert child["args"] == {
            "path": "run/phase", "span_id": 1, "parent": 0
        }

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1e5, allow_nan=False),
                st.floats(0.0, 1e3, allow_nan=False),
                st.one_of(st.none(), st.integers(1, 2**22)),
            ),
            max_size=30,
        )
    )
    def test_every_record_lands_once_on_a_named_track(self, rows):
        records = []
        for rid, (start_s, wall_s, pid) in enumerate(rows):
            extra = {} if pid is None else {"worker_pid": pid, "task_index": rid}
            records.append(_record(rid, None, "span", start_s, wall_s, **extra))
        events = chrome_trace_events(records)
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == len(records)
        named = dict(_thread_names(events))
        for record, event in zip(records, spans):
            pid = record.get("worker_pid")
            assert event["tid"] == (MAIN_TRACK if pid is None else pid)
            assert named[event["tid"]] == (
                "main" if pid is None else f"worker {pid}"
            )
            assert event["ts"] == pytest.approx(record["start_s"] * 1e6)
            assert event["dur"] == pytest.approx(record["wall_s"] * 1e6)
        assert set(named) == {e["tid"] for e in spans}


class TestChromeTraceDocument:
    """:func:`export_chrome_trace` and :func:`write_chrome_trace` on a
    real (small) traced session."""

    @pytest.fixture
    def trace_dir(self, tmp_path):
        root = tmp_path / "trace"
        obs.start_trace_session(root, seed=3, experiments=["demo"])
        for index in range(3):
            with obs.span("experiment", id=f"e{index}"):
                with obs.span("phase"):
                    with obs.span("step"):
                        pass
        obs.end_trace_session()
        return root

    def test_path_and_loaded_run_export_alike(self, trace_dir):
        assert export_chrome_trace(trace_dir) == export_chrome_trace(
            analysis.load_run(trace_dir)
        )

    def test_document_carries_the_run_provenance(self, trace_dir):
        manifest = analysis.load_run(trace_dir).manifest
        document = export_chrome_trace(trace_dir)
        assert document["displayTimeUnit"] == "ms"
        assert document["metadata"] == {
            "trace_dir": str(trace_dir),
            "git_rev": manifest.get("git_rev"),
            "seed": 3,
            "config_fingerprint": manifest.get("config_fingerprint"),
        }

    def test_nested_spans_nest_in_time(self, trace_dir):
        document = export_chrome_trace(trace_dir)
        spans = {
            e["args"]["span_id"]: e
            for e in document["traceEvents"]
            if e["ph"] == "X"
        }
        assert len(spans) == 9
        slack_us = 0.01  # records keep nanosecond precision
        for event in spans.values():
            parent = event["args"]["parent"]
            if parent is None:
                continue
            outer = spans[parent]
            assert event["ts"] >= outer["ts"] - slack_us
            assert (
                event["ts"] + event["dur"]
                <= outer["ts"] + outer["dur"] + slack_us
            )

    def test_write_returns_the_span_event_count(self, trace_dir, tmp_path):
        run = analysis.load_run(trace_dir)
        count = write_chrome_trace(run, tmp_path / "events.json")
        assert count == 9
        assert count == run.artifacts["spans.jsonl"]["rows"]

    def test_written_file_is_one_compact_json_line(self, trace_dir, tmp_path):
        path = tmp_path / "events.json"
        write_chrome_trace(trace_dir, path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        assert ", " not in text and ": " not in text
        assert json.loads(text) == export_chrome_trace(trace_dir)

    def test_write_replaces_an_existing_file(self, trace_dir, tmp_path):
        path = tmp_path / "events.json"
        path.write_text("stale " * 10_000)
        write_chrome_trace(trace_dir, path)
        assert "stale" not in path.read_text(encoding="utf-8")
        json.loads(path.read_text(encoding="utf-8"))

    def test_torn_spans_export_their_complete_records(self, trace_dir):
        path = trace_dir / "spans.jsonl"
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])
        events = [
            e for e in export_chrome_trace(trace_dir)["traceEvents"]
            if e["ph"] == "X"
        ]
        assert len(events) == 8

    def test_missing_manifest_is_a_clear_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError, match="manifest.json"):
            export_chrome_trace(tmp_path / "empty")
