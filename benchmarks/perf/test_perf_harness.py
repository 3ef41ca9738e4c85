"""Fast checks of the benchmark harness itself (no workload is run)."""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import types

import numpy as np
import pytest

from . import harness, tracing
from .workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ``benchmarks/conftest.py`` synthesises the shared week before the bench
# suite and appends a record to ``BENCH_obs_<runner>.json`` after it.
# Neither belongs to these tests: same-named fixtures here replace them.
@pytest.fixture(scope="session")
def warm_scenario_cache():
    yield


@pytest.fixture(scope="session")
def append_perf_trajectory():
    yield


def _span(ident, start, wall, parent=None, name="layer"):
    return {"id": ident, "parent": parent, "name": name, "start_s": start, "wall_s": wall}


# ----------------------------------------------------------------------
# self-time fold
# ----------------------------------------------------------------------
SPANS = [
    _span(0, 1.0, 4.0, name="experiments"),
    _span(1, 1.5, 1.0, parent=0, name="router.nat"),
    _span(2, 3.0, 1.0, parent=0, name="kernels.fifo"),
    _span(3, 3.2, 0.1, parent=2, name="router.nat"),
    _span(4, 6.0, 1.0, name="kernels.fifo"),
]


def test_self_time_fold_on_nested_spans():
    phases = tracing.rollup(SPANS)
    assert phases["experiments"].self_wall_s == pytest.approx(4.0 - 2.0)
    # a name's self time sums over its spans, each minus its children
    assert phases["router.nat"].self_wall_s == pytest.approx(1.0 + 0.1)
    assert phases["kernels.fifo"].self_wall_s == pytest.approx(0.9 + 1.0)
    assert phases["kernels.fifo"].total_wall_s == pytest.approx(2.0)
    assert tracing.unattributed(SPANS, 8.0) == pytest.approx(3.0)


def test_self_times_plus_unattributed_equal_rep_wall():
    assert tracing.accounted_wall(SPANS, 8.0) == pytest.approx(8.0)
    assert tracing.accounted_wall([], 2.5) == pytest.approx(2.5)


def test_recorder_links_children_to_the_innermost_open_span():
    recorder = tracing.Recorder("probe", 0)
    with recorder.span("matchmaking"):
        with recorder.span("fleet.shard_map"):
            pass
        with recorder.timed("sim"):
            pass
    with recorder.span("kernels.fifo"):
        pass
    assert [(s["name"], s["parent"]) for s in recorder.spans] == [
        ("matchmaking", None),
        ("fleet.shard_map", 0),
        ("kernels.fifo", None),
    ]
    assert set(recorder.timed_s) == {"sim"}
    wall = sum(s["wall_s"] for s in recorder.spans if s["parent"] is None) + 0.5
    assert tracing.accounted_wall(recorder.spans, wall) == pytest.approx(wall)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_spread_median_and_iqr():
    stats = harness.spread([4.0, 1.0, 3.0, 2.0])
    assert stats["median"] == 2.5
    assert (stats["q1"], stats["q3"]) == (1.25, 3.75)
    assert stats["iqr"] == 2.5
    assert (stats["min"], stats["max"], stats["n"]) == (1.0, 4.0, 4)
    single = harness.spread([7.0])
    assert (single["median"], single["iqr"], single["n"]) == (7.0, 0.0, 1)


def test_adjusted_wall_cancels_the_host_speed():
    quiet = harness.Rep("untraced", 2.0, {}, host_s=harness.REF_NOMINAL_S)
    slow = harness.Rep("untraced", 3.0, {}, host_s=1.5 * harness.REF_NOMINAL_S)
    assert quiet.adjusted == pytest.approx(2.0)
    assert slow.adjusted == pytest.approx(2.0)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def _provision_summary(digest="d0", uplink_forwarded=10):
    racks = [
        {"name": "tor0", "tier": "rack", "offered": 10, "forwarded": 9, "dropped": 1},
        {"name": "tor1", "tier": "rack", "offered": 5, "forwarded": 5, "dropped": 0},
    ]
    core = {"name": "core", "tier": "core", "offered": 14, "forwarded": 14, "dropped": 0}
    headroom = {"name": "uplink", "tier": "uplink", "offered": 14, "forwarded": 14, "dropped": 0}
    lossy = {
        "name": "uplink",
        "tier": "uplink",
        "offered": 14,
        "forwarded": uplink_forwarded,
        "dropped": 4,
    }
    return {
        "digest": digest,
        "sessions": 3,
        "admitted": 3,
        "occupancy_within_capacity": True,
        "hops": {0.8: racks + [core, headroom], 3.2: racks + [core, lossy]},
    }


def _verdict(*summaries):
    reps = [harness.Rep("untraced", 1.0, summary) for summary in summaries]
    checks = harness.evaluate(WORKLOADS["provision"], reps)
    return harness.verdict(checks, {}, {})


def test_clean_results_pass():
    result, code = _verdict(_provision_summary(), _provision_summary())
    assert (result["correct"], result["failed"], code) == (True, 0, 0)
    assert result["attempted"] > 0


@pytest.mark.parametrize(
    "corrupt",
    [
        _provision_summary(uplink_forwarded=11),  # offered != forwarded + dropped
        _provision_summary(digest="d1"),  # rep digests differ
    ],
)
def test_corrupted_result_fails_with_exit_1(corrupt):
    result, code = _verdict(_provision_summary(), corrupt)
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0
    assert code == 1


def test_a_failing_program_seed_moves_to_the_next_seed():
    workload = dataclasses.replace(WORKLOADS["provision"], failing_seeds=frozenset({3, 4}))
    assert [workload.program_seed(s) for s in (2, 3, 4, 5)] == [2, 5, 5, 5]


# ----------------------------------------------------------------------
# metric names: BENCHMARK.json <-> what the harness emits
# ----------------------------------------------------------------------
def _traced_reps():
    recorder = tracing.Recorder("probe", 1)
    with recorder.span("matchmaking"):
        pass
    layer = tracing.layer_metrics(recorder, 1.0, {}, {}, 0.0, 0.0, 2)
    summary = {"digest": "d"}
    return [
        harness.Rep("untraced", 1.0, summary, host_s=harness.REF_NOMINAL_S),
        harness.Rep("traced", 1.1, summary, layer=layer, spans=recorder.spans),
    ]


def test_benchmark_json_names_match_the_emitted_metrics():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == harness.END_TO_END_UNITS
    assert per_layer == tracing.PER_LAYER_UNITS

    reps = _traced_reps()
    assert set(harness.end_to_end_metrics(reps, [0.1], 1.0)) == set(end_to_end)
    assert set(harness.per_layer_metrics(reps)) == set(per_layer)


# ----------------------------------------------------------------------
# the traced run's wrappers
# ----------------------------------------------------------------------
def _aliases():
    """(module, attribute, original) for every boundary and re-export."""
    import repro.experiments.runner  # noqa: F401  (imports every layer)

    found = []
    for boundary in tracing.BOUNDARIES:
        owner, attr = tracing.resolve(boundary.target)
        original = vars(owner)[attr]
        found.append((owner, attr, original))
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            found += [
                (module, key, original)
                for key, value in list(vars(module).items())
                if value is original and module is not owner
            ]
    return found


def test_wrappers_restore_every_original():
    import repro.kernels
    from repro.router.nat import NatDevice

    aliases = _aliases()
    fifo = repro.kernels.fifo_forward
    nat_run = NatDevice.run
    late = types.ModuleType("repro._perf_late_import")
    recorder = tracing.Recorder("probe", 0)
    with pytest.raises(RuntimeError):
        with tracing.patched(recorder):
            assert repro.kernels.fifo_forward is not fifo
            assert NatDevice.run is not nat_run
            assert all(getattr(owner, attr) is not orig for owner, attr, orig in aliases)
            # a module first imported while the wrappers are live
            late.fifo_forward = repro.kernels.fifo_forward
            sys.modules[late.__name__] = late
            repro.kernels.fifo_forward(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
            raise RuntimeError("restore on error too")
    try:
        assert repro.kernels.fifo_forward is fifo
        assert NatDevice.run is nat_run
        assert late.fifo_forward is fifo
        assert all(getattr(owner, attr) is orig for owner, attr, orig in aliases)
    finally:
        del sys.modules[late.__name__]
    assert [span["name"] for span in recorder.spans] == ["kernels.fifo"]
