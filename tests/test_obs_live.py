"""Live monitoring: heartbeats, resource sampler, tails, watch, export.

The write side (``obs.progress`` + the sampler thread) must publish
while a session is active and vanish without one; the read side
(``tail_jsonl`` / ``WatchState``) must consume only appended bytes and
never a torn or duplicated record; the chrome-trace export must
round-trip every span exactly once onto its worker's track.
"""

import json
import threading
import time

import pytest

from repro import obs
from repro.obs.live import (
    PROGRESS_INTERVAL_S,
    JsonlTail,
    ProgressPublisher,
    StageStatus,
    WatchState,
    chrome_trace_events,
    current_rss_kb,
    export_chrome_trace,
    tail_jsonl,
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    yield
    if obs.current_session() is not None:
        obs.end_trace_session()
    obs.trace.install_tracer(None)


class _ListWriter:
    """Stand-in stream writer capturing records in memory."""

    def __init__(self):
        self.rows = 0
        self.records = []

    def write(self, record):
        self.records.append(record)
        self.rows += 1


class TestProgressPublisher:
    def _publisher(self, interval=PROGRESS_INTERVAL_S):
        writer = _ListWriter()
        return ProgressPublisher(writer, time.perf_counter(), interval), writer

    def test_first_and_final_records_always_publish(self):
        publisher, writer = self._publisher(interval=3600.0)
        assert publisher.publish("stage", 1, 100)  # first: always
        assert not publisher.publish("stage", 2, 100)  # inside the window
        assert not publisher.publish("stage", 50, 100)
        assert publisher.publish("stage", 100, 100)  # final: always
        assert [r["done"] for r in writer.records] == [1, 100]

    def test_rate_limit_passes_after_interval(self):
        publisher, writer = self._publisher(interval=0.01)
        publisher.publish("stage", 1, 10)
        time.sleep(0.02)
        assert publisher.publish("stage", 2, 10)
        record = writer.records[-1]
        assert record["rate"] is not None and record["rate"] > 0

    def test_stages_are_independent(self):
        publisher, writer = self._publisher(interval=3600.0)
        assert publisher.publish("a", 1, 10)
        assert publisher.publish("b", 1, 10)  # b's first record
        assert {r["stage"] for r in writer.records} == {"a", "b"}

    def test_increment_mode_counts_calls(self):
        publisher, writer = self._publisher(interval=0.0)
        publisher.publish("hops")
        publisher.publish("hops")
        publisher.publish("hops")
        assert [r["done"] for r in writer.records] == [1, 2, 3]
        assert all(r["total"] is None for r in writer.records)

    def test_restarted_stage_has_no_rate(self):
        # done going backwards (next policy reusing the stage) must not
        # produce a negative rate
        publisher, writer = self._publisher(interval=0.0)
        publisher.publish("stage", 50, 60)
        publisher.publish("stage", 1, 60)
        assert writer.records[-1]["rate"] is None

    def test_record_schema(self):
        publisher, writer = self._publisher()
        publisher.publish("stage", 1, 4, policy="least_loaded")
        record = writer.records[0]
        for key in (
            "stage", "done", "total", "rate", "unix", "wall_s", "interval_s",
        ):
            assert key in record
        assert record["policy"] == "least_loaded"
        # unix is a cross-process wall-clock stamp, not perf_counter
        assert record["unix"] == pytest.approx(time.time(), abs=60.0)

    def test_module_hook_is_noop_without_session(self):
        assert obs.current_session() is None
        assert obs.progress("anything", 1, 2) is False

    def test_module_hook_writes_through_session(self, tmp_path):
        obs.start_trace_session(tmp_path / "trace")
        assert obs.progress("stage", 1, 2) is True
        obs.end_trace_session()
        rows = obs.read_jsonl(tmp_path / "trace" / "progress.jsonl")
        assert rows[0]["stage"] == "stage"


class TestResourceSampler:
    def test_samples_land_in_resources_stream(self, tmp_path):
        session = obs.start_trace_session(
            tmp_path / "trace", sample_interval=0.01
        )
        deadline = time.time() + 5.0
        while (
            session._streams["resources"].rows < 3
            and time.time() < deadline
        ):
            time.sleep(0.01)
        with obs.span("busy"):
            time.sleep(0.02)
        obs.end_trace_session()

        rows = obs.read_jsonl(tmp_path / "trace" / "resources.jsonl")
        assert len(rows) >= 3
        for row in rows:
            assert row["interval_s"] == 0.01
            assert row["rss_kb"] > 0
            assert row["peak_rss_kb"] > 0
            assert row["cpu_s"] >= 0
            assert isinstance(row["open_span"], str)

    def test_sampler_stops_with_the_session(self, tmp_path):
        session = obs.start_trace_session(
            tmp_path / "trace", sample_interval=0.01
        )
        sampler = session._sampler
        assert sampler.is_alive()
        obs.end_trace_session()
        assert not sampler.is_alive()
        assert session._sampler is None

    def test_rollup_counts_heartbeats_and_samples(self, tmp_path):
        session = obs.start_trace_session(
            tmp_path / "trace", sample_interval=0.01
        )
        obs.progress("stage", 1, 1)
        time.sleep(0.05)
        obs.end_trace_session()
        assert session.rollup["heartbeats"] == 1
        assert session.rollup["resource_samples"] >= 1
        line = session.rollup_line()
        assert "1 heartbeats" in line
        assert "samples" in line
        manifest = obs.load_manifest(tmp_path / "trace")
        assert manifest["heartbeats"] == 1
        assert manifest["resource_samples"] >= 1
        assert manifest["artifacts"]["progress.jsonl"]["rows"] == 1

    def test_interval_validated(self, tmp_path):
        with pytest.raises(ValueError, match="interval"):
            obs.start_trace_session(tmp_path / "trace", sample_interval=0.0)
        # the failed start must not leak a half-open session
        assert obs.current_session() is None
        assert obs.current_tracer() is None

    def test_current_rss_positive(self):
        assert current_rss_kb() > 0


class TestJsonlTail:
    def test_missing_file_yields_nothing(self, tmp_path):
        tail = tail_jsonl(tmp_path / "absent.jsonl")
        assert tail.poll() == []

    def test_incremental_reads_never_rescan(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        tail = JsonlTail(path)
        with open(path, "w") as handle:
            handle.write('{"n": 1}\n')
        assert tail.poll() == [{"n": 1}]
        offset_after_first = tail.offset
        assert offset_after_first == len('{"n": 1}\n')
        with open(path, "a") as handle:
            handle.write('{"n": 2}\n{"n": 3}\n')
        assert tail.poll() == [{"n": 2}, {"n": 3}]
        assert tail.poll() == []  # nothing new: nothing re-read
        assert tail.records_read == 3

    def test_torn_tail_deferred_not_split(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        tail = JsonlTail(path)
        with open(path, "w") as handle:
            handle.write('{"n": 1}\n{"n": 2')  # second record torn
        assert tail.poll() == [{"n": 1}]
        with open(path, "a") as handle:
            handle.write('2}\n')  # the writer finishes the record
        assert tail.poll() == [{"n": 22}]

    def test_every_byte_offset_split(self, tmp_path):
        """Deliver the file in two arbitrary chunks: whatever the split,
        the tail yields exactly the full record sequence, in order."""
        records = [{"i": i, "payload": "x" * i} for i in range(12)]
        raw = "".join(json.dumps(r) + "\n" for r in records).encode()
        path = tmp_path / "stream.jsonl"
        for offset in range(len(raw) + 1):
            path.write_bytes(raw[:offset])
            tail = JsonlTail(path)
            first = tail.poll()
            path.write_bytes(raw)  # rest appended (prefix unchanged)
            second = tail.poll()
            assert first + second == records, f"offset {offset}"

    def test_corrupt_complete_line_skipped_once(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"n": 1}\nnot json\n{"n": 2}\n')
        tail = JsonlTail(path)
        assert tail.poll() == [{"n": 1}, {"n": 2}]
        assert tail.poll() == []


class TestConcurrentTail:
    def test_writer_thread_vs_polling_reader(self, tmp_path):
        """A live writer appending while the main thread polls: the tail
        must deliver every record exactly once, in order, never torn."""
        path = tmp_path / "progress.jsonl"
        n_records = 400
        stop = threading.Event()

        def writer():
            with open(path, "w", encoding="utf-8") as handle:
                for index in range(n_records):
                    handle.write(
                        json.dumps({"i": index, "pad": "y" * (index % 37)})
                        + "\n"
                    )
                    handle.flush()
                    if index % 50 == 0:
                        time.sleep(0.001)
            stop.set()

        thread = threading.Thread(target=writer)
        tail = tail_jsonl(path)
        collected = []
        thread.start()
        try:
            while not stop.is_set() or True:
                collected.extend(tail.poll())
                if stop.is_set() and len(collected) >= n_records:
                    break
                time.sleep(0.0005)
        finally:
            thread.join()
        collected.extend(tail.poll())
        assert [r["i"] for r in collected] == list(range(n_records))


class TestWatchState:
    def _write(self, path, records):
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    def _progress(self, stage, done, total, unix, **extra):
        return {
            "stage": stage,
            "done": done,
            "total": total,
            "rate": None,
            "unix": unix,
            "wall_s": 0.0,
            "interval_s": PROGRESS_INTERVAL_S,
            **extra,
        }

    def test_poll_folds_stages_and_eta(self, tmp_path):
        now = 1000.0
        self._write(
            tmp_path / "progress.jsonl",
            [
                self._progress("epochs", 10, 60, now - 10.0),
                self._progress("epochs", 30, 60, now),
            ],
        )
        state = WatchState(tmp_path)
        assert state.poll() == 2
        status = state.stages["epochs"]
        assert status.done == 30 and status.total == 60
        # 20 units over 10 s -> 2/s -> 30 remaining / 2 = 15 s
        assert status.recent_rate() == pytest.approx(2.0)
        assert status.eta_s() == pytest.approx(15.0)
        rendered = state.render(now_unix=now)
        assert "epochs" in rendered
        assert "30/60" in rendered
        assert "15.0s" in rendered

    def test_no_full_file_rereads(self, tmp_path):
        self._write(
            tmp_path / "progress.jsonl",
            [self._progress("s", 1, 4, 1.0)],
        )
        state = WatchState(tmp_path)
        state.poll()
        offset = state.progress_tail.offset
        self._write(
            tmp_path / "progress.jsonl",
            [self._progress("s", 2, 4, 2.0)],
        )
        state.poll()
        assert state.progress_tail.offset > offset  # advanced, not reset
        assert state.stages["s"].done == 2
        assert state.heartbeats == 2

    def test_finished_when_manifest_lands(self, tmp_path):
        state = WatchState(tmp_path)
        assert not state.finished()
        (tmp_path / "manifest.json").write_text("{}")
        assert state.finished()

    def test_stall_from_stale_resources(self, tmp_path):
        now = 5000.0
        self._write(
            tmp_path / "resources.jsonl",
            [{"unix": now - 100.0, "interval_s": 1.0, "rss_kb": 1.0,
              "peak_rss_kb": 1.0, "cpu_s": 0.0, "open_span": ""}],
        )
        state = WatchState(tmp_path)
        state.poll()
        # 100 s old vs a budget of 10 x 1 s -> stalled
        stall = state.stall(now_unix=now)
        assert stall is not None and "resource sample" in stall
        # a fresh sample is alive
        assert state.stall(now_unix=now - 95.0) is None
        # manifest present -> finished runs never stall
        (tmp_path / "manifest.json").write_text("{}")
        assert state.stall(now_unix=now) is None

    def test_stall_from_heartbeats_without_sampler(self, tmp_path):
        now = 5000.0
        self._write(
            tmp_path / "progress.jsonl",
            [self._progress("s", 1, 10, now - 120.0)],
        )
        state = WatchState(tmp_path)
        state.poll()
        assert state.stall(now_unix=now) is not None
        # all stages complete -> silence is expected, not a stall
        self._write(
            tmp_path / "progress.jsonl",
            [self._progress("s", 10, 10, now - 119.0)],
        )
        state.poll()
        assert state.stall(now_unix=now) is None

    def test_stall_after_overrides_budget(self, tmp_path):
        now = 5000.0
        self._write(
            tmp_path / "resources.jsonl",
            [{"unix": now - 5.0, "interval_s": 1.0, "rss_kb": 1.0,
              "peak_rss_kb": 1.0, "cpu_s": 0.0, "open_span": ""}],
        )
        state = WatchState(tmp_path)
        state.poll()
        assert state.stall(now_unix=now) is None  # inside 10 x 1 s
        assert state.stall(now_unix=now, stall_after=2.0) is not None

    def test_empty_directory_is_waiting_not_stalled(self, tmp_path):
        state = WatchState(tmp_path)
        state.poll()
        assert state.stall(now_unix=1e9) is None
        assert "waiting" in state.render(now_unix=1e9)

    def test_restarted_stage_clears_rate_window(self):
        status = StageStatus("s")
        status.absorb({"done": 50, "total": 60, "unix": 1.0})
        status.absorb({"done": 60, "total": 60, "unix": 2.0})
        status.absorb({"done": 1, "total": 60, "unix": 3.0})  # restart
        assert len(status.window) == 1
        assert status.recent_rate() is None


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
