"""Run one workload: set-up, time-boxed reps, output checks, metrics.

    python3 -m benchmarks.perf --workload {paper,router,provision,churn,all}
        [--seed N] [--seconds S] [--trace 0|1] [--out DIR]

Reps run back to back in this one process for ``--seconds``: a new rep
starts only while the previous one would still fit, and a run makes at
least :data:`MIN_REPS` of them.  Fleet stages use a
:data:`~.workloads.WORKERS`-process pool.  ``--trace 0`` reports the
end-to-end metrics: medians over the reps, each printed with its IQR,
min, max and n.  ``--trace 1`` alternates untraced and traced reps and
reports the per-layer metrics (:mod:`.tracing`).  ``--workload all``
runs each workload in a fresh interpreter.

The speed of a shared host drifts by up to half for tens of seconds at
a time, which no run short enough for the regression gate averages out.
Untraced runs therefore time a fixed reference loop (:func:`host_reference`)
before and after every rep and every set-up sample, and report each
time rescaled to a host on which that loop takes :data:`REF_NOMINAL_S`
(:func:`adjust`).  ``adj_wall_s`` and ``setup_s`` are such times; the
raw walls are printed next to them.

Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` (output checks run and failed, over every rep) and
``metrics``.  With ``--out`` the same data, with every rep and every
check, is written there as JSON, and traced runs also write their spans
there as JSON lines.  Scratch files (shard caches, trace sessions) live
in a temporary directory inside the checkout that is removed on exit.
The exit code is 1 when a check fails, 2 when the program's sources are
missing.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import itertools
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import tracing
from .workloads import WORKERS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Every end-to-end metric an untraced run reports, with its unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "adj_wall_s": "s",
    "peak_rss_mb": "MB",
}

#: Untraced reps a run makes even when ``--seconds`` is already spent.
MIN_REPS = 5
#: Untraced + traced rep pairs a traced run makes at least.
MIN_TRACED_PAIRS = 2
#: Untraced reps after which ``peak_rss_mb`` is read.
RSS_AFTER_REPS = 2
#: Set-up timings per untraced run, each in a fresh interpreter.
SETUP_SAMPLES = 3
#: Seconds the reference loop takes on a quiet benchmark box (2 vCPUs).
REF_NOMINAL_S = 0.08
#: Length of the array the reference loop sorts (800 kB of float64).
REF_ARRAY = 100_000
#: Float slack allowed in the span accounting identity.
ACCOUNTING_TOLERANCE_S = 1e-6


@dataclass
class Rep:
    """One finished rep: its kind, wall and output summary."""

    kind: str  # "untraced", "traced" or "session"
    wall: float
    summary: Dict[str, Any]
    #: Untraced runs: mean reference-loop time just before and after.
    host_s: Optional[float] = None
    #: Traced reps: per-layer metrics and span records.
    layer: Optional[Dict[str, float]] = None
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def adjusted(self) -> float:
        return adjust(self.wall, self.host_s)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles(n=4)``), IQR, min, max, n."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


# ----------------------------------------------------------------------
# set-up and reps
# ----------------------------------------------------------------------
def measure_setup(name: str, seed: int, scratch: str) -> float:
    """Seconds to import a workload's layers and build its inputs."""
    workload = WORKLOADS[name]
    start = time.perf_counter()
    workload.setup(workload.program_seed(seed), Path(scratch))
    return time.perf_counter() - start


def _print_setup_seconds(name: str, seed: int, scratch: str) -> None:
    """Entry point of a set-up sample's interpreter (see below)."""
    sys.path.insert(0, str(SRC))
    print(repr(measure_setup(name, seed, scratch)))


def fresh_setup_samples(name: str, seed: int, scratch: Path, values) -> List[float]:
    """Adjusted :func:`measure_setup` times, one fresh interpreter each.

    Each sample is a plain child process that the harness waits for, not
    a ``multiprocessing`` worker: a spawn pool would also start a
    resource-tracker process that outlives the benchmark.
    """
    command = [
        sys.executable,
        "-c",
        "import sys; from benchmarks.perf.harness import _print_setup_seconds; "
        "_print_setup_seconds(sys.argv[1], int(sys.argv[2]), sys.argv[3])",
        name,
        str(seed),
        str(scratch),
    ]
    samples = []
    host_before = host_reference(values)
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        seconds = float(child.stdout.strip().splitlines()[-1])
        host_after = host_reference(values)
        samples.append(adjust(seconds, (host_before + host_after) / 2))
        host_before = host_after
    return samples


def reference_values():
    """The array :func:`host_reference` sorts (NumPy is imported by then)."""
    import numpy as np

    return np.random.default_rng(0).random(REF_ARRAY)


@dataclass(order=True)
class _HeapItem:
    key: int


def host_reference(values) -> float:
    """Seconds for a fixed mix of the kinds of work the workloads do.

    About a third each: integer arithmetic and dict stores, small objects
    compared in a heap (the event schedulers), and NumPy sorts and
    passes.  It calls nothing of the program's, so a change to the
    program never changes it; it only follows the speed of the host.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(300_000):
        total += i * i
        table[i & 1023] = total
    heap: List[_HeapItem] = []
    for i in range(12_000):
        heapq.heappush(heap, _HeapItem((i * 7919) % 10007))
        if len(heap) > 64:
            heapq.heappop(heap)
    for _ in range(30):
        np.cumsum(np.sort(values) * 1.5 + 2.0)
    return time.perf_counter() - start


def adjust(seconds: float, host_s: float) -> float:
    """``seconds`` on a host where the reference loop takes REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / host_s


def run_once(workload: Workload, inputs: Any, span, registry) -> Tuple[float, Any, Dict]:
    """Run one rep: (wall, raw results, registry counters)."""
    gc.collect()
    registry.reset()
    start = time.perf_counter()
    raw = workload.rep(inputs, span)
    wall = time.perf_counter() - start
    return wall, raw, registry.snapshot()


def untraced_rep(workload: Workload, inputs: Any, registry, kind: str = "untraced") -> Rep:
    wall, raw, counters = run_once(workload, inputs, tracing.null_span, registry)
    return Rep(kind, wall, workload.summarise(inputs, raw, counters))


def traced_rep(workload: Workload, inputs: Any, registry, index: int) -> Rep:
    recorder = tracing.Recorder(workload.name, index)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with tracing.patched(recorder):
        wall, raw, counters = run_once(workload, inputs, recorder.span, registry)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    summary = workload.summarise(inputs, raw, counters)
    worker_cpu_s = (after.ru_utime + after.ru_stime) - (
        before.ru_utime + before.ru_stime
    )
    layer = tracing.layer_metrics(
        recorder,
        wall,
        counters,
        summary.get("layer", {}),
        worker_cpu_s=worker_cpu_s,
        worker_peak_rss_mb=after.ru_maxrss / 1024.0,
        workers=WORKERS,
    )
    return Rep("traced", wall, summary, layer=layer, spans=recorder.spans)


def session_rep(workload: Workload, inputs: Any, registry, scratch: Path, seed: int) -> Rep:
    """One untraced-harness rep inside a ``repro.obs`` trace session."""
    from repro import obs

    with tempfile.TemporaryDirectory(dir=scratch) as root:
        obs.start_trace_session(root, seed=seed)
        try:
            return untraced_rep(workload, inputs, registry, kind="session")
        finally:
            obs.end_trace_session()


def run_reps(
    workload: Workload,
    inputs: Any,
    deadline: float,
    traced: bool,
    scratch: Path,
    seed: int,
    values,
) -> Tuple[List[Rep], float]:
    """Reps until ``deadline``, and the peak RSS (MB) after the first few.

    Untraced runs make at least :data:`MIN_REPS` reps, each between two
    timings of :func:`host_reference`; traced runs alternate untraced and
    traced reps, then add the workload's obs-session rep.  The peak is
    read after :data:`RSS_AFTER_REPS` reps, so it does not grow with the
    number of reps a box fits in.
    """
    from repro import obs

    registry = obs.registry()
    minimum = MIN_TRACED_PAIRS if traced else MIN_REPS
    reps: List[Rep] = []
    peak = None
    host_before = None if traced else host_reference(values)
    for cycle in itertools.count(1):
        cycle_start = time.perf_counter()
        reps.append(untraced_rep(workload, inputs, registry))
        if traced:
            reps.append(traced_rep(workload, inputs, registry, len(reps)))
        else:
            host_after = host_reference(values)
            reps[-1].host_s = (host_before + host_after) / 2
            host_before = host_after
        if peak is None and len(reps) >= RSS_AFTER_REPS:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        if cycle >= minimum and now + (now - cycle_start) > deadline:
            break
    if traced and workload.session_rep:
        reps.append(session_rep(workload, inputs, registry, scratch, seed))
    return reps, peak


# ----------------------------------------------------------------------
# checks and metrics
# ----------------------------------------------------------------------
def evaluate(workload: Workload, reps: List[Rep]) -> List[Tuple[int, str, bool]]:
    """Every output check of every rep, as ``(rep index, name, ok)``."""
    reference = reps[0].summary["digest"]
    results = []
    for index, rep in enumerate(reps):
        results += [(index, name, bool(ok)) for name, ok in workload.checks(rep.summary)]
        if index:
            name = (
                "obs-session rep is bit-identical to the untraced rep"
                if rep.kind == "session"
                else "rep digest equals the first rep's"
            )
            results.append((index, name, rep.summary["digest"] == reference))
        if rep.kind == "traced":
            accounted = tracing.accounted_wall(rep.spans, rep.wall)
            results.append(
                (
                    index,
                    "span self times + unattributed = rep wall",
                    abs(accounted - rep.wall) <= ACCOUNTING_TOLERANCE_S,
                )
            )
    return results


def verdict(
    checks: List[Tuple[int, str, bool]], metrics: Dict[str, Dict], units: Dict[str, str]
) -> Tuple[Dict[str, Any], int]:
    """The result line (medians as values) and the exit code."""
    failed = sum(not ok for _, _, ok in checks)
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {
            name: {"value": stats["median"], "unit": units[name]}
            for name, stats in metrics.items()
        },
    }
    return result, 1 if failed else 0


def end_to_end_metrics(reps: List[Rep], setup_s: List[float], peak_rss_mb: float) -> Dict[str, Dict]:
    return {
        "setup_s": spread(setup_s),
        "adj_wall_s": spread([rep.adjusted for rep in reps if rep.kind == "untraced"]),
        "peak_rss_mb": spread([peak_rss_mb]),
    }


def per_layer_metrics(reps: List[Rep]) -> Dict[str, Dict]:
    untraced = statistics.median(rep.wall for rep in reps if rep.kind == "untraced")
    traced = [rep for rep in reps if rep.kind == "traced"]
    sessions = [rep.wall for rep in reps if rep.kind == "session"]
    metrics = {
        name: spread([rep.layer[name] for rep in traced])
        for name in tracing.PER_LAYER_UNITS
        if name in traced[0].layer
    }
    metrics["bench.trace_overhead_frac"] = spread(
        [statistics.median(rep.wall for rep in traced) / untraced - 1.0]
    )
    metrics["obs.session_overhead_frac"] = spread(
        [statistics.median(sessions) / untraced - 1.0 if sessions else 0.0]
    )
    return metrics


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def run_workload(
    name: str, seed: int, seconds: float, traced: bool, out: Optional[Path], scratch: Path
) -> int:
    workload = WORKLOADS[name]
    program_seed = workload.program_seed(seed)
    if program_seed != seed:
        print(f"# seed {seed}: the program raises on seeds {seed}-{program_seed - 1}; "
              f"using program seed {program_seed}")
    inputs = workload.setup(program_seed, scratch)
    values = reference_values()
    # the set-up samples count against ``seconds``, so every run takes
    # about as long whatever its set-up costs
    deadline = time.perf_counter() + seconds
    setup_s = [] if traced else fresh_setup_samples(name, seed, scratch, values)
    reps, peak = run_reps(workload, inputs, deadline, traced, scratch, program_seed, values)
    if traced:
        metrics, units = per_layer_metrics(reps), tracing.PER_LAYER_UNITS
    else:
        metrics = end_to_end_metrics(reps, setup_s, peak)
        units = END_TO_END_UNITS
    checks = evaluate(workload, reps)
    misses = reps[0].summary.get("tolerance_misses", [])

    stem = f"{name}-seed{seed}-trace{int(traced)}"
    if out is not None:
        record = {
            "workload": name,
            "seed": seed,
            "program_seed": program_seed,
            "seconds": seconds,
            "trace": int(traced),
            "workers": WORKERS,
            "setup_s": setup_s,
            "peak_rss_mb": peak,
            "reps": [
                {
                    "kind": rep.kind,
                    "wall_s": rep.wall,
                    "host_s": rep.host_s,
                    "digest": rep.summary["digest"],
                }
                for rep in reps
            ],
            "tolerance_misses": misses,
            "metrics": {m: {"unit": units[m], **stats} for m, stats in metrics.items()},
            "checks": [{"rep": i, "name": n, "ok": ok} for i, n, ok in checks],
        }
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
        if traced:
            with open(out / f"{stem}.spans.jsonl", "w") as handle:
                for rep in reps:
                    for span in rep.spans:
                        handle.write(json.dumps(span) + "\n")

    walls = ", ".join(f"{rep.kind} {rep.wall:.3f}s" for rep in reps)
    print(f"# {name} seed {seed} trace {int(traced)} workers {WORKERS}: {walls}")
    if not traced:
        raw = spread([rep.wall for rep in reps])
        host = spread([rep.host_s for rep in reps])
        print(f"# raw wall median {raw['median']:.4f} s (iqr {raw['iqr']:.4g}); "
              f"reference loop median {host['median']:.4f} s (iqr {host['iqr']:.4g})")
    for metric, stats in metrics.items():
        line = f"{metric} {stats['median']!r} {units[metric]}"
        if stats["n"] > 1:
            line += (
                f"  (iqr {stats['iqr']:.6g}, min {stats['min']:.6g}, "
                f"max {stats['max']:.6g}, n {stats['n']})"
            )
        print(line)
    for miss in misses:
        print(f"# outside paper tolerance (not an invariant): {miss}")
    for index, check, ok in checks:
        if not ok:
            print(f"# FAILED check, rep {index}: {check}")
    result, code = verdict(checks, metrics, units)
    print(f"# checks: {len(checks)} run, {result['failed']} failed")
    print(json.dumps(result), flush=True)
    return code


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh interpreter; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        command = [
            sys.executable, "-m", "benchmarks.perf",
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.out is not None:
            command += ["--out", str(args.out)]
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(child.stdout, end="", flush=True)
        code = max(code, child.returncode)
        if child.returncode not in (0, 1):
            combined["correct"] = False
            continue
        result = json.loads(child.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return code


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.perf", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=_non_negative_int, default=0)
    parser.add_argument("--seconds", type=_positive_float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.out is not None:
        args.out = args.out.resolve()
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perf-scratch-") as scratch:
        return run_workload(
            args.workload, args.seed, args.seconds, args.trace == 1, args.out, Path(scratch)
        )
