"""Telemetry is provably non-invasive: tracing never changes results.

The observability layer (spans, metrics, streaming artifacts) reads
clocks and *finished* results, never random streams — so every seeded
simulation must be bit-identical with tracing enabled, disabled, or
toggled mid-process.  These tests pin that contract on the golden
matchmaking scenario and on the sharded fleet aggregate.
"""

import numpy as np
import pytest

from repro import obs
from repro.fleet.profiles import hosting_facility
from repro.matchmaking import PoolConfig, simulate_matchmaking

SEED = 3
N_SERVERS = 3
HORIZON = 900.0


@pytest.fixture(autouse=True)
def _clean_obs_state(tmp_path):
    """No leaked session/tracer across tests, whatever happens inside."""
    yield
    if obs.current_session() is not None:
        obs.end_trace_session()
    obs.trace.install_tracer(None)


def _golden_run(policy: str = "latency_aware"):
    fleet = hosting_facility(
        n_servers=N_SERVERS, duration=HORIZON, seed=SEED
    )
    config = PoolConfig.for_fleet(
        fleet,
        demand_ratio=3.0,
        epoch_length=60.0,
        session_duration_mean=180.0,
        session_duration_min=5.0,
    )
    return simulate_matchmaking(fleet, policy, config)


def _assert_identical(a, b):
    """Bit-identity across every array and record of two results."""
    np.testing.assert_array_equal(a.occupancy, b.occupancy)
    np.testing.assert_array_equal(
        a.per_server_attempts, b.per_server_attempts
    )
    np.testing.assert_array_equal(
        a.per_server_rejections, b.per_server_rejections
    )
    assert a.admission == b.admission
    assert a.sessions == b.sessions
    assert a.capacities == b.capacities
    assert a.repeat_assignments == b.repeat_assignments
    assert len(a.session_rtts) == len(b.session_rtts)
    for rtts_a, rtts_b in zip(a.session_rtts, b.session_rtts):
        np.testing.assert_array_equal(rtts_a, rtts_b)
    assert a.describe() == b.describe()


class TestMatchmakingBitIdentity:
    def test_traced_equals_untraced(self, tmp_path):
        baseline = _golden_run()

        obs.start_trace_session(tmp_path / "trace", seed=SEED)
        try:
            traced = _golden_run()
        finally:
            obs.end_trace_session()

        _assert_identical(baseline, traced)

    def test_mid_process_toggle(self, tmp_path):
        """on -> off -> on again: every run identical to the cold one."""
        baseline = _golden_run()

        obs.start_trace_session(tmp_path / "t1", seed=SEED)
        first = _golden_run()
        obs.end_trace_session()

        second = _golden_run()  # tracing now off again

        obs.start_trace_session(tmp_path / "t2", seed=SEED)
        third = _golden_run()
        obs.end_trace_session()

        for result in (first, second, third):
            _assert_identical(baseline, result)

    def test_tracing_actually_recorded_something(self, tmp_path):
        # guard against the trivial pass where tracing silently no-ops
        from repro.obs.export import load_manifest, read_jsonl

        obs.start_trace_session(tmp_path / "trace", seed=SEED)
        _golden_run()
        obs.end_trace_session()

        manifest = load_manifest(tmp_path / "trace")
        assert manifest["metrics"]["matchmaking.attempts"] > 0
        # the golden run goes through the columnar engine, so the
        # vectorisation counters must land in the manifest totals too
        assert manifest["metrics"]["matchmaking.columnar.segments"] > 0
        assert (
            "matchmaking.columnar.scalar_fallback_attempts"
            in manifest["metrics"]
        )
        epochs = read_jsonl(tmp_path / "trace" / "matchmaking_epochs.jsonl")
        assert len(epochs) == int(HORIZON // 60.0)


class TestLiveMonitoringBitIdentity:
    """The PR-9 write side (heartbeats + sampler) is also non-invasive."""

    def test_sampled_run_equals_untraced(self, tmp_path):
        """The resource sampler thread runs alongside the simulation and
        must not perturb it: observers only, no RNG reads."""
        baseline = _golden_run()

        obs.start_trace_session(
            tmp_path / "trace", sample_interval=0.005, seed=SEED
        )
        try:
            sampled = _golden_run()
        finally:
            obs.end_trace_session()

        _assert_identical(baseline, sampled)
        rows = obs.read_jsonl(tmp_path / "trace" / "resources.jsonl")
        assert rows, "sampler never fired"  # guard the trivial pass

    def test_progress_hook_is_null_without_session(self):
        """obs.progress() between sessions publishes nowhere and the
        simulation around it stays bit-identical."""
        baseline = _golden_run()
        assert obs.progress("orphan", 1, 2) is False
        again = _golden_run()
        _assert_identical(baseline, again)

    def test_progress_stream_recorded_under_session(self, tmp_path):
        obs.start_trace_session(tmp_path / "trace", seed=SEED)
        _golden_run()
        obs.end_trace_session()

        rows = obs.read_jsonl(tmp_path / "trace" / "progress.jsonl")
        stages = {row["stage"] for row in rows}
        # the golden run goes through the columnar epoch loop
        assert "matchmaking.columnar.epochs" in stages
        final = [
            row
            for row in rows
            if row["stage"] == "matchmaking.columnar.epochs"
        ][-1]
        assert final["done"] == final["total"] == int(HORIZON // 60.0)


class TestFleetBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sharded_aggregate_traced_equals_untraced(
        self, tmp_path, workers
    ):
        """Bit-identity holds for the serial branch and real pools alike
        (workers > 1 ships per-task telemetry back on the futures)."""
        from repro.fleet.scenario import FleetScenario
        from repro.gameserver.fluid import fluid_series_equal

        fleet = hosting_facility(n_servers=4, duration=1800.0, seed=5)
        baseline = FleetScenario(fleet).aggregate_per_second(workers=workers)

        obs.start_trace_session(tmp_path / "trace", seed=5)
        try:
            traced = FleetScenario(fleet).aggregate_per_second(
                workers=workers
            )
        finally:
            obs.end_trace_session()

        assert fluid_series_equal(baseline, traced)

    def test_kernel_fates_identical_under_tracing(self, tmp_path):
        from repro.kernels import fifo_forward

        rng = np.random.default_rng(11)
        arrivals = np.cumsum(rng.exponential(1.0, size=5000))
        services = rng.uniform(0.5, 1.5, size=5000)
        baseline = fifo_forward(arrivals, services, primary_queue=8)

        obs.start_trace_session(tmp_path / "trace")
        try:
            traced = fifo_forward(arrivals, services, primary_queue=8)
        finally:
            obs.end_trace_session()

        np.testing.assert_array_equal(baseline.fates, traced.fates)
        np.testing.assert_array_equal(
            baseline.departures, traced.departures
        )


class TestFacilitynetStreaming:
    """Per-hop publication: streamed rows and bit-identical traversal."""

    def _run_hops(self, tmp_dir=None):
        from repro.facilitynet.pipeline import rack_ingress_traces, run_hops
        from repro.facilitynet.topology import build_topology

        fleet = hosting_facility(n_servers=4, duration=300.0, seed=0)
        shape = build_topology(4, 2, per_server_pps=1.0, per_server_bps=1.0)
        ingress = rack_ingress_traces(fleet, shape, 120.0, 180.0, workers=1)
        return run_hops(shape, ingress, 120.0, 180.0, seed=fleet.seed)

    def test_hop_stream_rows_match_reports(self, tmp_path):
        from repro.obs.export import load_manifest, read_jsonl

        obs.start_trace_session(tmp_path / "trace")
        result = self._run_hops()
        obs.end_trace_session()

        rows = read_jsonl(tmp_path / "trace" / "facilitynet_hops.jsonl")
        assert [row["hop"] for row in rows] == [
            report.name for report in result.hops
        ]
        for row, report in zip(rows, result.hops):
            assert row["tier"] == report.tier
            assert row["offered"] == report.offered
            assert row["dropped"] == report.dropped
        manifest = load_manifest(tmp_path / "trace")
        assert manifest["metrics"]["facilitynet.offered"] == sum(
            report.offered for report in result.hops
        )

    def test_traversal_identical_with_tracing(self, tmp_path):
        baseline = self._run_hops()

        obs.start_trace_session(tmp_path / "trace")
        try:
            traced = self._run_hops()
        finally:
            obs.end_trace_session()

        assert len(baseline.hops) == len(traced.hops)
        for a, b in zip(baseline.hops, traced.hops):
            assert a.name == b.name
            assert a.offered == b.offered
            assert a.forwarded == b.forwarded
            assert a.dropped == b.dropped
            assert a.mean_delay_s == b.mean_delay_s
