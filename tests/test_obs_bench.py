"""Tests for the perf-trajectory recorder (repro.obs.bench)."""

import json

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    MAX_BENCH_RECORDS,
    append_bench_record,
    collect_perf_record,
    compact_records,
    emit_bench_record,
    load_trajectory,
)


class TestAppendBenchRecord:
    def test_creates_then_appends(self, tmp_path):
        path = tmp_path / "BENCH_obs_test.json"
        append_bench_record(path, {"kernel_pps": 1.0})
        append_bench_record(path, {"kernel_pps": 2.0})
        trajectory = load_trajectory(path)
        assert trajectory["schema"] == BENCH_SCHEMA_VERSION
        assert [r["kernel_pps"] for r in trajectory["records"]] == [1.0, 2.0]

    def test_corrupt_file_restarts_cleanly(self, tmp_path):
        path = tmp_path / "BENCH_obs_test.json"
        path.write_text("{not json", encoding="utf-8")
        append_bench_record(path, {"kernel_pps": 3.0})
        assert len(load_trajectory(path)["records"]) == 1

    def test_file_ends_with_newline(self, tmp_path):
        # append-only files that CI diffs/uploads should be POSIX-clean
        path = tmp_path / "BENCH_obs_test.json"
        append_bench_record(path, {})
        assert path.read_text(encoding="utf-8").endswith("\n")

    def test_same_rev_keeps_only_the_latest(self, tmp_path):
        # re-running benchmarks at one revision must not stack duplicate
        # trajectory points — only the last run per rev is the signal
        path = tmp_path / "BENCH_obs_test.json"
        append_bench_record(path, {"git_rev": "aaa", "kernel_pps": 1.0})
        append_bench_record(path, {"git_rev": "aaa", "kernel_pps": 2.0})
        append_bench_record(path, {"git_rev": "bbb", "kernel_pps": 3.0})
        records = load_trajectory(path)["records"]
        assert [(r["git_rev"], r["kernel_pps"]) for r in records] == [
            ("aaa", 2.0),
            ("bbb", 3.0),
        ]

    def test_records_without_rev_are_never_collapsed(self, tmp_path):
        path = tmp_path / "BENCH_obs_test.json"
        append_bench_record(path, {"kernel_pps": 1.0})
        append_bench_record(path, {"kernel_pps": 2.0})
        assert len(load_trajectory(path)["records"]) == 2


class TestCompactRecords:
    def test_caps_at_newest_max_records(self):
        records = [
            {"git_rev": f"rev{i}", "kernel_pps": float(i)}
            for i in range(MAX_BENCH_RECORDS + 25)
        ]
        compacted = compact_records(records)
        assert len(compacted) == MAX_BENCH_RECORDS
        assert compacted[-1] is records[-1]  # newest kept
        assert compacted[0]["git_rev"] == "rev25"  # oldest dropped

    def test_dedupe_preserves_order(self):
        records = [
            {"git_rev": "a", "n": 1},
            {"git_rev": "b", "n": 2},
            {"git_rev": "a", "n": 3},
            {"n": 4},  # no rev: always kept
        ]
        compacted = compact_records(records)
        assert compacted == [
            {"git_rev": "b", "n": 2},
            {"git_rev": "a", "n": 3},
            {"n": 4},
        ]

    def test_empty_is_empty(self):
        assert compact_records([]) == []


class TestCollectPerfRecord:
    def test_record_has_throughput_and_provenance(self):
        record = collect_perf_record()
        assert record["kernel_pps"] > 0
        assert 0.0 <= record["cache_hit_rate_warm"] <= 1.0
        assert record["cache_hit_rate_warm"] == 1.0  # warm pass: all hits
        assert record["matchmaking_columnar_players_per_s"] > 0
        for key in ("git_rev", "repro_version", "kernel_version", "python"):
            assert record[key]
        json.dumps(record)  # the record itself must be JSON-safe

    def test_emit_writes_named_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("BENCH_RUNNER", "unit")
        path = emit_bench_record()
        assert path.name == "BENCH_obs_unit.json"
        assert len(load_trajectory(path)["records"]) == 1
