"""Bench: live-monitoring costs — the disabled hook and the tail reader.

Two costs gate whether `obs.progress` may sit inside million-iteration
loops and whether `repro-analyze watch` can keep up with a busy run:

* the **disabled hook** (no session active) must stay a global read and
  a return — instrumented hot loops pay ~nothing when untraced;
* the **tail reader** must consume appended records far faster than any
  writer produces them (writers are rate-limited to ~4 rows/s/stage).

Wall-clock floors are deliberately conservative (CI machines are
noisy); trends are read from the repo benchmark, ``python3 -m
benchmarks.perf``: its untraced reps pay the disabled hook, and
``obs.session_overhead_frac`` prices the traced path.
"""

from __future__ import annotations

import json
import time

from repro import obs
from repro.obs.live import tail_jsonl

#: Disabled-hook calls per measurement round.
_HOOK_CALLS = 200_000
#: Conservative floor: a no-op hook must clear 500k calls/s (measured
#: well above 2M/s; the floor only catches a pathological regression
#: like an accidental clock read or dict churn on the disabled path).
_HOOK_FLOOR_CPS = 500_000.0

#: Records in the tail-throughput probe.
_TAIL_RECORDS = 50_000
#: Floor: 100k records/s (measured in the millions; any full-file
#: re-read regression collapses this by orders of magnitude).
_TAIL_FLOOR_RPS = 100_000.0


def test_bench_disabled_progress_hook(benchmark):
    """obs.progress with no session: a global read per call."""
    assert obs.current_session() is None

    def hammer():
        progress = obs.progress
        for index in range(_HOOK_CALLS):
            progress("bench.stage", index, _HOOK_CALLS)

    t0 = time.perf_counter()
    benchmark.pedantic(hammer, rounds=1, iterations=1)
    wall = time.perf_counter() - t0
    rate = _HOOK_CALLS / wall if wall > 0 else float("inf")
    print(f"\ndisabled obs.progress: {rate:,.0f} calls/s")
    assert rate >= _HOOK_FLOOR_CPS, (
        f"disabled hook at {rate:,.0f} calls/s, floor "
        f"{_HOOK_FLOOR_CPS:,.0f} — the untraced path regressed"
    )


def test_bench_tail_reader_throughput(benchmark, tmp_path):
    """tail_jsonl drains a 50k-record stream in one incremental poll."""
    path = tmp_path / "progress.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for index in range(_TAIL_RECORDS):
            handle.write(
                json.dumps(
                    {"stage": "s", "done": index, "total": _TAIL_RECORDS}
                )
                + "\n"
            )
    tail = tail_jsonl(path)

    t0 = time.perf_counter()
    records = benchmark.pedantic(tail.poll, rounds=1, iterations=1)
    wall = time.perf_counter() - t0
    assert len(records) == _TAIL_RECORDS
    assert tail.poll() == []  # drained: nothing re-read
    rate = _TAIL_RECORDS / wall if wall > 0 else float("inf")
    print(f"\ntail_jsonl: {rate:,.0f} records/s")
    assert rate >= _TAIL_FLOOR_RPS, (
        f"tail reader at {rate:,.0f} records/s, floor "
        f"{_TAIL_FLOOR_RPS:,.0f}"
    )
