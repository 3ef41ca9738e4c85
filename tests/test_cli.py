"""Tests for the repro-simulate CLI and the repro-experiments runner."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import runner
from repro.experiments.base import RunConfig
from repro.net.addresses import IPv4Address
from repro.trace.format import load_trace
from repro.trace.pcap import read_pcap


class TestSimulateCli:
    def test_pcap_output(self, tmp_path, capsys):
        out = str(tmp_path / "window.pcap")
        code = main(["--start", "0", "--end", "60", "--slots", "6",
                     "--format", "pcap", "-o", out])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        trace = read_pcap(out, server_address=IPv4Address("128.223.40.15"))
        assert len(trace) > 100

    def test_npz_output_roundtrips(self, tmp_path, capsys):
        out = str(tmp_path / "window.npz")
        code = main(["--end", "60", "--slots", "6", "--format", "npz",
                     "-o", out])
        assert code == 0
        trace = load_trace(out)
        assert len(trace) > 100
        assert trace.server_address == IPv4Address("128.223.40.15")

    def test_log_written(self, tmp_path):
        out = str(tmp_path / "w.npz")
        log = str(tmp_path / "server.log")
        code = main(["--end", "60", "--slots", "4", "--format", "npz",
                     "-o", out, "--log", log])
        assert code == 0
        from repro.gameserver.gamelog import parse_log

        with open(log) as handle:
            events = parse_log(handle)
        assert any(e.event == "map_start" for e in events)

    def test_bad_window_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "x.pcap")
        assert main(["--start", "60", "--end", "30", "-o", out]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_slots_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "x.pcap")
        assert main(["--end", "30", "--slots", "0", "-o", out]) == 2

    def test_end_beyond_week_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "x.pcap")
        assert main(["--end", "99999999", "-o", out]) == 2


class TestExperimentsWorkersFlag:
    @pytest.mark.parametrize("value", ["0", "-1", "-8"])
    def test_non_positive_workers_is_a_clean_argparse_error(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--workers", value, "table1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err
        assert "must be >= 1" in err
        assert "Traceback" not in err

    def test_non_integer_workers_is_a_clean_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--workers", "two", "table1"])
        assert excinfo.value.code == 2
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("first", [["probe"], ["--list"]])
    def test_workers_does_not_leak_into_the_next_run(self, first, monkeypatch, capsys):
        from repro.core.report import ComparisonRow
        from repro.experiments.base import ExperimentOutput

        seen = []

        def probe(seed: int = 0, config: RunConfig = RunConfig()):
            seen.append(config.workers)
            return ExperimentOutput(
                "probe", "workers probe", rows=[ComparisonRow("x", 1.0, 1.0)]
            )

        monkeypatch.setitem(runner.REGISTRY, "probe", probe)
        monkeypatch.setitem(runner.DESCRIPTIONS, "probe", "workers probe")
        assert runner.main([*first, "--workers", "1"]) == 0
        assert runner.main(["probe"]) == 0
        # the second run saw no --workers, whatever the first run asked for
        assert seen[-1] is None


class TestExperimentsUnknownId:
    def test_unknown_id_is_a_clean_error(self, capsys):
        assert runner.main(["nosuch"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown experiment 'nosuch'; known: ")
        assert "table1" in err
        assert "Traceback" not in err

    def test_unknown_id_among_known_ones_runs_nothing(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        code = runner.main(["table1", "nosuch", "--trace-dir", str(trace_dir)])
        assert code == 2
        captured = capsys.readouterr()
        assert "unknown experiment 'nosuch'" in captured.err
        assert "reproduced within tolerance" not in captured.out
        # rejected before any trace session starts: nothing was written
        assert not trace_dir.exists() or not any(trace_dir.iterdir())


class TestExperimentsCacheDirValidation:
    def test_nonexistent_parent_is_a_clean_argparse_error(self, tmp_path, capsys):
        bogus = str(tmp_path / "missing" / "cache")
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--cache-dir", bogus, "table1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--cache-dir" in err
        assert "does not exist" in err
        assert "Traceback" not in err

    def test_existing_file_rejected(self, tmp_path, capsys):
        not_a_dir = tmp_path / "entries.pkl"
        not_a_dir.write_bytes(b"x")
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--cache-dir", str(not_a_dir), "table1"])
        assert excinfo.value.code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_unwritable_path_rejected(self, tmp_path, monkeypatch, capsys):
        # os.access is the writability oracle (root sees everything as
        # writable, so the permission bit itself cannot be the fixture)
        target = tmp_path / "cache"
        target.mkdir()
        monkeypatch.setattr(
            runner.os, "access", lambda path, mode: False
        )
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--cache-dir", str(target), "table1"])
        assert excinfo.value.code == 2
        assert "not writable" in capsys.readouterr().err

    def test_unwritable_parent_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(runner.os, "access", lambda path, mode: False)
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--cache-dir", str(tmp_path / "cache"), "table1"])
        assert excinfo.value.code == 2
        assert "is not writable" in capsys.readouterr().err

    def test_creatable_path_accepted(self, tmp_path):
        # parent exists and is writable; the directory itself need not
        assert runner._cache_dir(str(tmp_path / "cache")) == str(
            tmp_path / "cache"
        )


class TestExperimentsMatchmakingFlags:
    def test_unknown_policy_is_a_clean_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--policy", "zergrush", "matchmaking"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--policy" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_pool_size_is_a_clean_argparse_error(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--pool-size", value, "matchmaking"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--pool-size" in err
        assert "must be >= 1" in err

    def test_policy_choices_come_from_the_registry(self, capsys):
        # --policy derives its choices from repro.matchmaking.POLICIES:
        # a registered policy is addressable without touching the runner
        from repro.matchmaking import POLICIES

        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--policy", "zergrush", "matchmaking"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for name in POLICIES:
            assert name in err

    def test_unknown_rtt_profile_is_a_clean_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--rtt-profile", "atlantis", "matchmaking"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--rtt-profile" in err
        assert "uniform" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    @pytest.mark.parametrize("value", ["-0.5", "-3"])
    def test_negative_weight_is_a_clean_argparse_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main([flag, value, "matchmaking"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "must be >= 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_non_numeric_weight_is_a_clean_argparse_error(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main([flag, "plenty", "matchmaking"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_weight_is_a_clean_argparse_error(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--alpha", value, "matchmaking"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--alpha" in err
        assert "Traceback" not in err

    def test_pool_size_below_capacity_is_a_clean_runtime_error(self, capsys):
        # feasibility depends on the seed-derived facility's slot count,
        # so this surfaces at run time — but cleanly, without a traceback
        code = runner.main(["--pool-size", "2", "matchmaking"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--pool-size" in err
        assert "must exceed" in err
        assert "Traceback" not in err

    def test_unknown_engine_is_a_clean_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--engine", "turbo", "matchmaking"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--engine" in err
        assert "Traceback" not in err

    def test_engine_flag_is_gone(self, capsys):
        # one matchmaking engine: the old --engine flag is an unknown
        # option, whatever its value
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["table1", "--engine", "scalar"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--engine" in err
        assert "Traceback" not in err
        with pytest.raises(SystemExit):
            runner.main(["--help"])
        assert "--engine" not in capsys.readouterr().out


class TestExperimentsChurnFlags:
    def test_unknown_scenario_is_a_clean_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--scenario", "tsunami", "churn"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--scenario" in err
        assert "Traceback" not in err

    def test_scenario_choices_come_from_the_registry(self, capsys):
        from repro.matchmaking import SCENARIOS

        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--scenario", "tsunami", "churn"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for name in SCENARIOS:
            assert name in err

    @pytest.mark.parametrize(
        "flag", ["--qoe-duration-floor", "--qoe-balk-escalation"]
    )
    @pytest.mark.parametrize("value", ["0", "1.5", "-0.5"])
    def test_out_of_range_fraction_is_a_clean_argparse_error(
        self, flag, value, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            runner.main([flag, value, "churn"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "must lie in (0, 1]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-10", "nan"])
    def test_bad_rtt_scale_is_a_clean_argparse_error(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--qoe-rtt-scale", value, "churn"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--qoe-rtt-scale" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_rtt_good_is_a_clean_argparse_error(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--qoe-rtt-good", value, "churn"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--qoe-rtt-good" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag", ["--qoe-duration-floor", "--qoe-rtt-good", "--qoe-rtt-scale"]
    )
    def test_non_numeric_qoe_value_is_a_clean_argparse_error(
        self, flag, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            runner.main([flag, "plenty", "churn"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid" in err

    def test_churn_flags_documented_in_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--scenario" in out
        assert "--qoe-duration-floor" in out
        assert "--qoe-balk-escalation" in out

    def test_back_to_back_runs_leak_no_state(self, capsys):
        # a knob-laden run followed by a plain one in the same process:
        # the plain run must print exactly what a fresh interpreter prints
        import os
        import subprocess
        import sys

        assert runner.main(
            ["churn", "--scenario", "patch_day", "--qoe-rtt-good", "20"]
        ) == 0
        reshaped = capsys.readouterr().out
        assert runner.main(["churn"]) == 0
        second = capsys.readouterr().out

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(
            os.path.join(os.path.dirname(__file__), os.pardir, "src")
        )
        fresh = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", "churn"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert fresh.returncode == 0, fresh.stderr
        assert second == fresh.stdout
        assert reshaped != second


class TestExperimentsCacheDir:
    @staticmethod
    def _fake_experiment(tmp_path, monkeypatch):
        """Register a tiny sharded experiment that exercises the cache."""
        from dataclasses import dataclass

        from repro.core.report import ComparisonRow
        from repro.experiments.base import ExperimentOutput
        from repro.fleet.execution import shard_map

        @dataclass(frozen=True)
        class _Task:
            value: int

        def _evaluate(task):
            return task.value * task.value

        def run(seed: int = 0, config: RunConfig = RunConfig()):
            results = shard_map(
                _evaluate,
                [_Task(i) for i in range(3)],
                workers=1,
                cache=config.cache,
            )
            return ExperimentOutput(
                experiment_id="faketask",
                title="fake sharded probe",
                rows=[ComparisonRow("sum of squares", 5.0, float(sum(results)))],
            )

        monkeypatch.setitem(runner.REGISTRY, "faketask", run)
        monkeypatch.setitem(runner.DESCRIPTIONS, "faketask", "fake sharded probe")
        # _Task/_evaluate must stay importable for task_key fingerprinting
        return run

    @staticmethod
    def _stats(out, cache_dir):
        """(hits, misses, stored) from the run's cache line."""
        import re

        match = re.search(
            rf"^cache {re.escape(cache_dir)}: (\d+) hits, (\d+) misses, "
            r"(\d+) stored$",
            out,
            re.MULTILINE,
        )
        assert match, out
        return tuple(int(group) for group in match.groups())

    @pytest.mark.parametrize(
        "experiment_id", ["faketask", "fleet", "facilitynet"]
    )
    def test_cache_dir_cold_then_warm(
        self, experiment_id, tmp_path, monkeypatch, capsys
    ):
        # the real ids pin that --cache-dir reaches each sharded experiment
        self._fake_experiment(tmp_path, monkeypatch)
        cache_dir = str(tmp_path / "cache")

        code = runner.main([experiment_id, "--cache-dir", cache_dir])
        assert code == 0
        cold = capsys.readouterr().out
        cold_hits, cold_misses, cold_stored = self._stats(cold, cache_dir)
        assert cold_misses > 0
        assert cold_stored == cold_misses

        code = runner.main([experiment_id, "--cache-dir", cache_dir])
        assert code == 0
        warm = capsys.readouterr().out
        assert self._stats(warm, cache_dir) == (cold_hits + cold_misses, 0, 0)
        # the reported measurement must not depend on cache warmth
        assert cold.split(f"cache {cache_dir}:")[0] == warm.split(
            f"cache {cache_dir}:"
        )[0]

    def test_no_cache_line_without_flag(self, tmp_path, monkeypatch, capsys):
        self._fake_experiment(tmp_path, monkeypatch)
        assert runner.main(["faketask"]) == 0
        assert "cache " not in capsys.readouterr().out


class TestExperimentsList:
    def test_list_prints_every_id_with_description(self, capsys):
        assert runner.main(["--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(runner.REGISTRY)
        listed = {}
        for line in lines:
            experiment_id, description = line.split(None, 1)
            listed[experiment_id] = description
        assert set(listed) == set(runner.REGISTRY)
        # descriptions are the experiments' one-line titles, not ids
        assert listed["facilitynet"] == runner.DESCRIPTIONS["facilitynet"]
        assert "oversubscription" in listed["facilitynet"]
        assert all(description.strip() for description in listed.values())

    def test_list_runs_nothing(self, capsys):
        # --list must exit before any experiment executes (fast path)
        assert runner.main(["--list", "table1"]) == 0
        out = capsys.readouterr().out
        assert "reproduced within tolerance" not in out


class TestExperimentsTraceDirValidation:
    # --trace-dir shares _writable_directory with --cache-dir, so the
    # same misuse fails the same way: at argument parsing, exit code 2.
    def test_nonexistent_parent_is_a_clean_argparse_error(self, tmp_path, capsys):
        bogus = str(tmp_path / "missing" / "trace")
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--trace-dir", bogus, "table1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--trace-dir" in err
        assert "does not exist" in err
        assert "Traceback" not in err

    def test_existing_file_rejected(self, tmp_path, capsys):
        not_a_dir = tmp_path / "manifest.json"
        not_a_dir.write_bytes(b"x")
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--trace-dir", str(not_a_dir), "table1"])
        assert excinfo.value.code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_unwritable_path_rejected(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "trace"
        target.mkdir()
        monkeypatch.setattr(runner.os, "access", lambda path, mode: False)
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--trace-dir", str(target), "table1"])
        assert excinfo.value.code == 2
        assert "not writable" in capsys.readouterr().err

    def test_unwritable_parent_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(runner.os, "access", lambda path, mode: False)
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["--trace-dir", str(tmp_path / "trace"), "table1"])
        assert excinfo.value.code == 2
        assert "is not writable" in capsys.readouterr().err

    def test_creatable_path_accepted(self, tmp_path):
        assert runner._trace_dir(str(tmp_path / "trace")) == str(
            tmp_path / "trace"
        )


class TestExperimentsTraceDir:
    def test_matchmaking_trace_produces_manifest_and_streams(
        self, tmp_path, capsys
    ):
        from repro.obs import current_session
        from repro.obs.export import load_manifest, read_jsonl

        trace_dir = tmp_path / "trace"
        code = runner.main(
            ["matchmaking", "--policy", "least_loaded",
             "--trace-dir", str(trace_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"trace {trace_dir}: manifest at" in out

        manifest = load_manifest(trace_dir)
        assert manifest["seed"] == 0
        assert manifest["experiments"] == ["matchmaking"]
        assert manifest["config_fingerprint"]
        assert manifest["metrics"]["matchmaking.attempts"] > 0
        # the manifest inventories at least two streaming artifacts
        # beyond itself (per-epoch JSONL + occupancy arrays + spans)
        assert len(manifest["artifacts"]) >= 2
        for name in manifest["artifacts"]:
            assert (trace_dir / name).is_file()

        epochs = read_jsonl(trace_dir / "matchmaking_epochs.jsonl")
        assert epochs, "per-epoch stream must not be empty"
        assert epochs[0]["policy"] == "least_loaded"
        assert all(row["epoch"] == i for i, row in enumerate(epochs))
        # admissions streamed per epoch must sum to the run totals
        assert (
            sum(row["admitted"] for row in epochs)
            == manifest["metrics"]["matchmaking.admitted"]
        )
        spans = read_jsonl(trace_dir / "spans.jsonl")
        assert any(s["name"] == "matchmaking.run" for s in spans)
        assert all(s["wall_s"] >= 0 for s in spans)

    def test_session_is_closed_after_run(self, tmp_path):
        from repro.obs import current_session

        runner.main(
            ["table1", "--trace-dir", str(tmp_path / "trace")]
        )
        assert current_session() is None

    def test_no_trace_line_without_flag(self, capsys):
        assert runner.main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "manifest at" not in out
        assert "trace rollup" not in out

    def test_end_of_run_rollup_line(self, tmp_path, capsys):
        """--trace-dir prints the one-line rollup sourced from the
        finished session: wall time, peak RSS, spans, cache use."""
        import re

        code = runner.main(
            ["matchmaking", "--policy", "least_loaded",
             "--trace-dir", str(tmp_path / "trace")]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("trace rollup:")]
        assert len(lines) == 1
        assert re.fullmatch(
            r"trace rollup: \d+\.\d\d s wall \| peak rss \d+\.\d MiB "
            r"\| \d+ spans \| \d+ heartbeats \| \d+ samples "
            r"\| cache unused",
            lines[0],
        ), lines[0]

    def test_fingerprint_hashes_effective_values(
        self, tmp_path, monkeypatch, capsys
    ):
        # a flag given at its default value is the same run as the flag
        # left out, so the two manifests must be comparable
        from repro.obs.export import load_manifest

        monkeypatch.setattr(
            runner, "run_experiments", lambda ids, seed=0, **kwargs: []
        )
        fingerprints = {}
        for name, flags in (
            ("plain", []),
            ("default", ["--alpha", "1.0"]),
            ("changed", ["--alpha", "2"]),
        ):
            trace_dir = tmp_path / name
            runner.main(["matchmaking", *flags, "--trace-dir", str(trace_dir)])
            fingerprints[name] = load_manifest(trace_dir)["config_fingerprint"]
        assert fingerprints["plain"] == fingerprints["default"]
        assert fingerprints["changed"] != fingerprints["plain"]

    def test_sample_interval_requires_trace_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["matchmaking", "--sample-interval", "0.5"])
        assert excinfo.value.code == 2
        assert "--sample-interval requires --trace-dir" in (
            capsys.readouterr().err
        )

    def test_sample_interval_must_be_positive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(
                ["matchmaking", "--trace-dir", str(tmp_path / "t"),
                 "--sample-interval", "-1"]
            )
        assert excinfo.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    def test_sample_interval_streams_resources(self, tmp_path, capsys):
        from repro.obs.export import load_manifest, read_jsonl

        trace_dir = tmp_path / "trace"
        code = runner.main(
            ["matchmaking", "--policy", "least_loaded",
             "--trace-dir", str(trace_dir),
             "--sample-interval", "0.01"]
        )
        assert code == 0
        rows = read_jsonl(trace_dir / "resources.jsonl")
        assert rows, "sampler produced no rows"
        manifest = load_manifest(trace_dir)
        assert manifest["resource_samples"] == len(rows)
        assert manifest["heartbeats"] > 0

    def test_rollup_reports_cache_hits(self, tmp_path, capsys):
        import re

        code = runner.main(
            ["matchmaking", "--policy", "least_loaded",
             "--trace-dir", str(tmp_path / "t1"),
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        cold = capsys.readouterr().out
        # cold run: some lookups miss (within-run reuse may still hit)
        assert re.search(r"\| cache \d+/\d+ hits", cold)
        assert "(100.0%)" not in cold

        code = runner.main(
            ["matchmaking", "--policy", "least_loaded",
             "--trace-dir", str(tmp_path / "t2"),
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        warm = capsys.readouterr().out
        rollup = [l for l in warm.splitlines() if "trace rollup" in l][0]
        assert "(100.0%)" in rollup  # warm run: every lookup hits


class TestAnalyzeCli:
    """repro-analyze, driven over a real traced run."""

    @pytest.fixture(scope="class")
    def trace_dirs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("analyze")
        for name, policy, seed in (
            ("a", "least_loaded", "0"),
            ("b", "latency_aware", "1"),
        ):
            code = runner.main(
                ["matchmaking", "--policy", policy, "--seed", seed,
                 "--trace-dir", str(root / name)]
            )
            assert code == 0
        return str(root / "a"), str(root / "b")

    def test_summary_self_validates(self, trace_dirs, capsys):
        from repro.cli import analyze_main

        assert analyze_main(["summary", trace_dirs[0]]) == 0
        out = capsys.readouterr().out
        assert "metric totals" in out
        assert "match the manifest" in out
        assert "MISMATCH" not in out

    def test_spans_rollup_and_critical_path(self, trace_dirs, capsys):
        from repro.cli import analyze_main

        assert analyze_main(["spans", trace_dirs[0]]) == 0
        out = capsys.readouterr().out
        assert "per-phase wall time" in out
        assert "critical path" in out
        assert "fleet.shard_map" in out

    def test_heatmap_and_frontier(self, trace_dirs, capsys):
        from repro.cli import analyze_main

        assert analyze_main(["heatmap", trace_dirs[0]]) == 0
        out = capsys.readouterr().out
        assert "occupancy × region × epoch" in out
        assert "occupancy–RTT frontier" in out
        assert "least_loaded" in out

    def test_heatmap_unknown_policy_rejected(self, trace_dirs, capsys):
        from repro.cli import analyze_main

        assert analyze_main(
            ["heatmap", trace_dirs[0], "--policy", "zergrush"]
        ) == 2
        assert "not traced" in capsys.readouterr().err

    def test_compare_two_runs(self, trace_dirs, capsys):
        from repro.cli import analyze_main

        assert analyze_main(["compare", *trace_dirs]) == 0
        out = capsys.readouterr().out
        assert "seed" in out
        assert "config_fingerprint" in out

    def test_compare_bench_soft_fails_with_annotation(
        self, trace_dirs, tmp_path, capsys
    ):
        import json

        from repro.cli import analyze_main

        bench = tmp_path / "BENCH_obs_test.json"
        bench.write_text(json.dumps({
            "records": [{"kernel_pps": v} for v in (100.0, 110.0, 40.0)]
        }))
        # a >20% regression is reported as a warning annotation, and
        # the exit code stays 0 — CI must not break on perf noise
        assert analyze_main(
            ["compare", trace_dirs[0], "--bench", str(bench)]
        ) == 0
        out = capsys.readouterr().out
        assert "::warning ::" in out
        assert "kernel_pps" in out

    def test_missing_trace_dir_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import analyze_main

        assert analyze_main(["summary", str(tmp_path / "absent")]) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err
        assert "Traceback" not in err

    def test_summary_surfaces_live_stream_counts(self, trace_dirs, capsys):
        from repro.cli import analyze_main

        assert analyze_main(["summary", trace_dirs[0]]) == 0
        out = capsys.readouterr().out
        assert "live streams:" in out
        assert "heartbeats" in out

    def test_watch_once_on_finished_run(self, trace_dirs, capsys):
        from repro.cli import analyze_main

        assert analyze_main(["watch", trace_dirs[0], "--once"]) == 0
        out = capsys.readouterr().out
        assert "(finished)" in out
        assert "matchmaking.columnar.epochs" in out
        assert "::warning" not in out

    def test_watch_once_strict_on_finished_run_is_clean(
        self, trace_dirs, capsys
    ):
        from repro.cli import analyze_main

        # finished runs never stall, whatever their timestamps' age
        assert analyze_main(
            ["watch", trace_dirs[0], "--once", "--strict"]
        ) == 0

    def test_watch_renders_midflight_progress_and_eta(
        self, tmp_path, capsys
    ):
        """Acceptance: one frame from a mid-flight dir (no manifest yet)
        shows the bar, counts and an ETA from the recent-window rate."""
        import json
        import time as time_mod

        from repro.cli import analyze_main

        midflight = tmp_path / "midflight"
        midflight.mkdir()
        now = time_mod.time()
        with open(midflight / "progress.jsonl", "w") as handle:
            for unix, done in ((now - 10.0, 10), (now, 30)):
                handle.write(json.dumps({
                    "stage": "epochs", "done": done, "total": 60,
                    "rate": 2.0, "unix": unix, "wall_s": 0.0,
                    "interval_s": 0.25,
                }) + "\n")
        assert analyze_main(["watch", str(midflight), "--once"]) == 0
        out = capsys.readouterr().out
        assert "(in flight)" in out
        assert "30/60" in out
        assert "eta" in out
        assert "15.0s" in out  # (60-30)/2 per s

    def test_watch_strict_flags_a_stalled_run(self, tmp_path, capsys):
        import json

        from repro.cli import analyze_main

        stalled = tmp_path / "stalled"
        stalled.mkdir()
        with open(stalled / "resources.jsonl", "w") as handle:
            handle.write(json.dumps({
                "unix": 1000.0, "wall_s": 1.0, "interval_s": 0.5,
                "cpu_s": 1.0, "rss_kb": 1.0, "peak_rss_kb": 1.0,
                "open_span": "experiment", "pid": 1,
            }) + "\n")
        # the sample is decades old: stalled under any budget
        assert analyze_main(
            ["watch", str(stalled), "--once", "--strict"]
        ) == 1
        out = capsys.readouterr().out
        assert "::warning ::" in out
        # without --strict the stall is an annotation, not a failure
        assert analyze_main(["watch", str(stalled), "--once"]) == 0

    def test_watch_missing_dir_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import analyze_main

        assert analyze_main(
            ["watch", str(tmp_path / "absent"), "--once"]
        ) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_export_chrome_trace(self, trace_dirs, tmp_path, capsys):
        import json

        from repro.cli import analyze_main
        from repro.obs.export import read_jsonl

        output = tmp_path / "events.json"
        assert analyze_main(
            ["export", trace_dirs[0], "-o", str(output)]
        ) == 0
        out = capsys.readouterr().out
        assert "span events" in out

        document = json.loads(output.read_text())
        spans = read_jsonl(Path(trace_dirs[0]) / "spans.jsonl")
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(events) == len(spans)

    def test_export_default_output_lands_in_trace_dir(
        self, trace_dirs, capsys
    ):
        from repro.cli import analyze_main

        assert analyze_main(["export", trace_dirs[0]]) == 0
        assert (Path(trace_dirs[0]) / "trace_events.json").is_file()

    def test_export_missing_dir_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import analyze_main

        assert analyze_main(["export", str(tmp_path / "absent")]) == 2
        assert "Traceback" not in capsys.readouterr().err
