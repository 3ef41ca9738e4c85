"""Command-line tools: ``repro-simulate`` and ``repro-analyze``.

``repro-simulate`` generates a window of the calibrated server's traffic
and writes it as a pcap (for external tools: tcpdump/wireshark/your own
analysis) or the compact columnar format (for fast reloading into this
library), with an optional game log alongside — the pair of artifacts
the paper offered to publish.

``repro-analyze`` (:func:`analyze_main`) is the read side of
observability: it inspects trace artifact directories written by
``repro-experiments --trace-dir`` through :mod:`repro.obs.analysis` —
no simulation is ever re-run.

Examples::

    repro-simulate --start 3600 --end 3900 --format pcap -o window.pcap
    repro-simulate --end 600 --format npz -o short.npz --log server.log

    repro-analyze summary trace/
    repro-analyze spans trace/ --limit 15
    repro-analyze heatmap trace/ --policy latency_aware
    repro-analyze compare trace-a/ trace-b/
    repro-analyze watch trace/              # live: refreshing status table
    repro-analyze watch trace/ --once --strict   # CI: one frame, stall=fail
    repro-analyze export trace/ --format chrome-trace -o trace.json
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

import numpy as np

from repro.gameserver.config import olygamer_week
from repro.gameserver.gamelog import write_log
from repro.gameserver.rounds import RoundSchedule
from repro.trace.format import save_trace
from repro.trace.pcap import write_pcap
from repro.workloads.scenarios import Scenario


def build_parser() -> argparse.ArgumentParser:
    """The repro-simulate argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-simulate",
        description="Generate calibrated Counter-Strike server traffic.",
    )
    parser.add_argument("--start", type=float, default=0.0,
                        help="window start, seconds into the week (default 0)")
    parser.add_argument("--end", type=float, required=True,
                        help="window end, seconds into the week")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--format", choices=("pcap", "npz"), default="pcap",
                        help="output format (default pcap)")
    parser.add_argument("-o", "--output", required=True, help="output path")
    parser.add_argument("--log", default=None,
                        help="also write the game log to this path")
    parser.add_argument("--slots", type=int, default=None,
                        help="override the 22-slot capacity")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.end <= args.start:
        print("error: --end must exceed --start", file=sys.stderr)
        return 2
    profile = olygamer_week()
    if args.slots is not None:
        if args.slots < 1:
            print("error: --slots must be >= 1", file=sys.stderr)
            return 2
        profile = profile.replace(max_players=args.slots)
    if args.end > profile.duration:
        print(
            f"error: --end beyond the simulated week ({profile.duration:.0f}s)",
            file=sys.stderr,
        )
        return 2

    scenario = Scenario(profile, seed=args.seed)
    trace = scenario.packet_window(args.start, args.end)
    if args.format == "pcap":
        count = write_pcap(trace, args.output)
    else:
        save_trace(trace, args.output)
        count = len(trace)
    print(f"wrote {count:,} packets ({args.format}) to {args.output}")

    if args.log is not None:
        rounds = RoundSchedule(profile, seed=args.seed)
        lines = write_log(scenario.population, args.log, rounds=rounds)
        print(f"wrote {lines:,} log lines to {args.log}")
    return 0


# ----------------------------------------------------------------------
# repro-analyze: the read side of --trace-dir artifacts
# ----------------------------------------------------------------------
def _load_run_or_fail(path: str):
    """Load a trace dir, or print a clean error and return ``None``."""
    from repro.obs import analysis

    try:
        return analysis.load_run(path)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _print_provenance(run) -> None:
    manifest = run.manifest
    fingerprint = manifest.get("config_fingerprint", "")
    print(
        f"run {run.root} (schema {manifest.get('schema')}, "
        f"repro {manifest.get('repro_version')})"
    )
    print(
        f"  seed {manifest.get('seed')} | git "
        f"{str(manifest.get('git_rev'))[:12]} | config "
        f"{str(fingerprint)[:12]} | {manifest.get('duration_s', 0.0):.2f} s"
    )
    experiments = manifest.get("experiments")
    if experiments:
        print(f"  experiments: {', '.join(experiments)}")
    heartbeats = manifest.get("heartbeats")
    samples = manifest.get("resource_samples")
    if heartbeats is not None or samples is not None:
        print(
            f"  live streams: {heartbeats or 0} heartbeats | "
            f"{samples or 0} resource samples"
        )


def _cmd_summary(args) -> int:
    from repro.obs import analysis

    run = _load_run_or_fail(args.trace_dir)
    if run is None:
        return 2
    _print_provenance(run)

    print(f"\nartifacts ({len(run.artifacts)}):")
    for name, info in sorted(run.artifacts.items()):
        rows = info.get("rows")
        rows_text = f"{rows:>8,} rows" if rows is not None else "  arrays"
        print(f"  {name:<44} {info.get('kind', '?'):<8} {rows_text}")

    print("\nmetric totals (manifest):")
    for name, value in sorted(run.metric_totals.items()):
        if isinstance(value, dict):
            value = (
                f"count={value.get('count')} mean={value.get('mean', 0.0):g}"
            )
        print(f"  {name:<44} {value}")

    workers = run.forest.worker_nodes()
    if workers:
        pids = sorted({node.worker_pid for node in workers})
        print(
            f"\nsharded work: {len(workers)} worker tasks across "
            f"{len(pids)} subprocesses (pids {', '.join(map(str, pids))})"
        )

    checks = analysis.verify_metric_totals(run)
    if checks:
        print("\nmetric totals re-derived from artifacts:")
        failures = 0
        for name, derived, recorded, ok in checks:
            mark = "ok " if ok else "MISMATCH"
            print(f"  [{mark}] {name:<40} {derived} (manifest: {recorded})")
            failures += 0 if ok else 1
        if failures:
            print(
                f"\n{failures} derived total(s) disagree with the manifest",
                file=sys.stderr,
            )
            return 1
        print(f"  all {len(checks)} derivable totals match the manifest")
    return 0


def _cmd_spans(args) -> int:
    run = _load_run_or_fail(args.trace_dir)
    if run is None:
        return 2
    _print_provenance(run)
    forest = run.forest
    print(f"\n{len(forest)} spans, {len(forest.roots)} roots")

    print("\nper-phase wall time:")
    header = f"  {'phase':<32} {'calls':>6} {'total s':>10} {'self s':>10} {'share':>7}"
    print(header)
    for rollup in forest.rollup()[: args.limit]:
        print(
            f"  {rollup.name:<32} {rollup.calls:>6} "
            f"{rollup.total_wall_s:>10.3f} {rollup.self_wall_s:>10.3f} "
            f"{rollup.share:>6.1%}"
        )

    path = forest.critical_path()
    if path:
        print("\ncritical path (heaviest root, greedy descent):")
        for node in path:
            where = (
                f" [worker {node.worker_pid}]"
                if node.worker_pid is not None
                else ""
            )
            print(
                f"  {'  ' * node.depth}{node.name:<30} "
                f"{node.wall_s:>9.3f} s{where}"
            )
    return 0


#: Shading ramp for the text heatmap (low → high utilization).
_SHADES = " .:-=+*#%@"


def _cmd_heatmap(args) -> int:
    from repro.obs import analysis

    run = _load_run_or_fail(args.trace_dir)
    if run is None:
        return 2
    policies = run.occupancy_policies()
    if not policies:
        print(
            "error: no matchmaking_occupancy_*.npz artifacts in "
            f"{args.trace_dir} (trace a matchmaking run first)",
            file=sys.stderr,
        )
        return 2
    if args.policy is not None and args.policy not in policies:
        print(
            f"error: policy {args.policy!r} not traced; "
            f"available: {', '.join(policies)}",
            file=sys.stderr,
        )
        return 2
    selected = [args.policy] if args.policy is not None else policies

    _print_provenance(run)
    for policy in selected:
        heatmap = analysis.occupancy_heatmap(run, policy)
        bins = min(args.bins, heatmap.n_epochs)
        edges = np.linspace(0, heatmap.n_epochs, bins + 1).astype(int)
        utilization = heatmap.utilization()
        print(
            f"\n{policy}: occupancy × region × epoch "
            f"({heatmap.n_epochs} epochs × {heatmap.epoch_length:.0f} s "
            f"-> {bins} bins; shade = utilization 0..1)"
        )
        for region, name in enumerate(heatmap.region_names):
            cells = []
            for b in range(bins):
                chunk = utilization[region, edges[b]:edges[b + 1]]
                level = float(chunk.mean()) if chunk.size else 0.0
                index = min(
                    len(_SHADES) - 1, int(level * (len(_SHADES) - 1) + 0.5)
                )
                cells.append(_SHADES[index])
            capacity = int(heatmap.capacities[region])
            print(f"  {name:<12} |{''.join(cells)}| cap {capacity}")

    frontier = analysis.occupancy_rtt_frontier(run)
    if frontier:
        print("\noccupancy–RTT frontier (artifact-derived):")
        print(f"  {'policy':<18} {'utilization':>11} {'mean RTT ms':>12} {'sessions':>9}")
        for point in frontier:
            rtt = (
                f"{point.mean_rtt_ms:>12.1f}"
                if not math.isnan(point.mean_rtt_ms)
                else f"{'n/a':>12}"
            )
            print(
                f"  {point.policy:<18} {point.utilization:>11.3f} "
                f"{rtt} {point.sessions:>9}"
            )
    return 0


def _cmd_compare(args) -> int:
    from repro.obs import analysis

    run_a = _load_run_or_fail(args.trace_dir)
    run_b = _load_run_or_fail(args.trace_dir_b)
    if run_a is None or run_b is None:
        return 2
    print(analysis.compare(run_a, run_b).render())
    return 0


def _cmd_watch(args) -> int:
    import time as _time

    from repro.obs.live import STALL_FACTOR, WatchState

    factor = (
        args.stall_factor if args.stall_factor is not None else STALL_FACTOR
    )
    if not os.path.isdir(args.trace_dir):
        print(
            f"error: {args.trace_dir!r} is not a directory",
            file=sys.stderr,
        )
        return 2
    state = WatchState(args.trace_dir)
    interactive = not args.once and sys.stdout.isatty()
    while True:
        state.poll()
        frame = state.render()
        if interactive:
            # home + clear-below keeps a single refreshing table
            print(f"\x1b[H\x1b[J{frame}", flush=True)
        else:
            print(frame, flush=True)
        stall = state.stall(factor=factor, stall_after=args.stall_after)
        if stall is not None:
            print(f"::warning ::watch {args.trace_dir}: {stall}", flush=True)
            if args.strict:
                return 1
        if args.once:
            return 0
        if state.finished():
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 130


def _cmd_export(args) -> int:
    from repro.obs.live import write_chrome_trace

    run = _load_run_or_fail(args.trace_dir)
    if run is None:
        return 2
    output = args.output
    if output is None:
        output = os.path.join(args.trace_dir, "trace_events.json")
    count = write_chrome_trace(run, output)
    print(
        f"wrote {count} span events ({args.format}) to {output} "
        "(load in chrome://tracing or ui.perfetto.dev)"
    )
    return 0


def build_analyze_parser() -> argparse.ArgumentParser:
    """The repro-analyze argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description=(
            "Inspect trace artifact directories written by "
            "repro-experiments --trace-dir (read-only: nothing is re-run)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    summary = commands.add_parser(
        "summary",
        help="provenance, artifact inventory, metric totals + self-check",
    )
    summary.add_argument("trace_dir", help="trace artifact directory")
    summary.set_defaults(fn=_cmd_summary)

    spans = commands.add_parser(
        "spans", help="per-phase wall-time rollup and critical path"
    )
    spans.add_argument("trace_dir", help="trace artifact directory")
    spans.add_argument(
        "--limit", type=int, default=20,
        help="rollup rows to print (default 20)",
    )
    spans.set_defaults(fn=_cmd_spans)

    heatmap = commands.add_parser(
        "heatmap",
        help="occupancy × region × epoch heatmaps and the occupancy–RTT "
        "frontier, from artifacts alone",
    )
    heatmap.add_argument("trace_dir", help="trace artifact directory")
    heatmap.add_argument(
        "--policy", default=None,
        help="restrict to one traced policy (default: all)",
    )
    heatmap.add_argument(
        "--bins", type=int, default=12,
        help="epoch bins per heatmap row (default 12)",
    )
    heatmap.set_defaults(fn=_cmd_heatmap)

    compare = commands.add_parser(
        "compare", help="diff two runs' manifests and metric totals"
    )
    compare.add_argument("trace_dir", help="first trace artifact directory")
    compare.add_argument("trace_dir_b", help="second trace artifact directory")
    compare.set_defaults(fn=_cmd_compare)

    watch = commands.add_parser(
        "watch",
        help="tail an in-flight trace dir: per-stage progress bars, "
        "rates, ETA, resource liveness, stall detection",
    )
    watch.add_argument("trace_dir", help="trace artifact directory")
    watch.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (scripted/CI use)",
    )
    watch.add_argument(
        "--strict", action="store_true",
        help="exit 1 when the run looks stalled",
    )
    watch.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval (default 1.0)",
    )
    watch.add_argument(
        "--stall-factor", type=float, default=None, metavar="N",
        help="stalled = no liveness signal for N x its expected "
        "interval (default 10)",
    )
    watch.add_argument(
        "--stall-after", type=float, default=None, metavar="SECONDS",
        help="absolute stall budget in seconds (overrides --stall-factor)",
    )
    watch.set_defaults(fn=_cmd_watch)

    export = commands.add_parser(
        "export",
        help="convert a finished run's span forest for external viewers",
    )
    export.add_argument("trace_dir", help="trace artifact directory")
    export.add_argument(
        "--format", choices=("chrome-trace",), default="chrome-trace",
        help="output format (chrome-trace: Chrome/Perfetto trace-event "
        "JSON, worker spans on per-pid tracks)",
    )
    export.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="output path (default: TRACE_DIR/trace_events.json)",
    )
    export.set_defaults(fn=_cmd_export)
    return parser


def analyze_main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point for ``repro-analyze``."""
    args = build_analyze_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
