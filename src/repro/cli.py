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
    repro-analyze export trace/ -o trace.json
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import Callable, List, Optional

import numpy as np

from repro.gameserver.config import olygamer_week
from repro.gameserver.gamelog import write_log
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


def _unwritable_file(path: str) -> Optional[str]:
    """Why a file at ``path`` cannot be written, or ``None`` if it can."""
    if os.path.isdir(path):
        return "path is a directory"
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        return f"directory {directory} does not exist"
    if not os.access(directory, os.W_OK | os.X_OK):
        return f"directory {directory} is not writable"
    return None


def quiet_on_closed_stdout(entry: Callable[..., int]) -> Callable[..., int]:
    """Make a console entry point exit 1, without a traceback, when the
    reader of its stdout goes away early (``repro-analyze ... | head``).

    The SIGPIPE recipe of Python's ``signal`` docs: stdout is pointed at
    devnull so the interpreter's final flush cannot raise again.
    """

    @functools.wraps(entry)
    def run(argv: Optional[List[str]] = None) -> int:
        try:
            code = entry(argv)
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            return 1
        return code

    return run


@quiet_on_closed_stdout
def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if not (math.isfinite(args.start) and math.isfinite(args.end)):
        print("error: --start and --end must be finite", file=sys.stderr)
        return 2
    if args.start < 0:
        print("error: --start must be >= 0", file=sys.stderr)
        return 2
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

    # fail before the window is synthesised, not after
    for flag, path in (("-o", args.output), ("--log", args.log)):
        problem = path is not None and _unwritable_file(path)
        if problem:
            print(f"error: {flag} {path}: {problem}", file=sys.stderr)
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
        lines = write_log(scenario.population, args.log, rounds=scenario.rounds)
        print(f"wrote {lines:,} log lines to {args.log}")
    return 0


# ----------------------------------------------------------------------
# repro-analyze: the read side of --trace-dir artifacts
# ----------------------------------------------------------------------
def _positive_int(text: str) -> int:
    """argparse type: an integer > 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


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
            # an experiment span carries its id: name which one was slowest
            span_id = node.record.get("attrs", {}).get("id")
            label = node.name if span_id is None else f"{node.name}[{span_id}]"
            where = (
                f" [worker {node.worker_pid}]"
                if node.worker_pid is not None
                else ""
            )
            print(
                f"  {'  ' * node.depth}{label:<30} "
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


def _cmd_export(args) -> int:
    from repro.obs.analysis import write_chrome_trace

    run = _load_run_or_fail(args.trace_dir)
    if run is None:
        return 2
    output = args.output
    if output is None:
        output = os.path.join(args.trace_dir, "trace_events.json")
    problem = _unwritable_file(output)
    if problem:
        print(f"error: -o {output}: {problem}", file=sys.stderr)
        return 2
    count = write_chrome_trace(run, output)
    print(
        f"wrote {count} span events (chrome-trace) to {output} "
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
        "--limit", type=_positive_int, default=20,
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
        "--bins", type=_positive_int, default=12,
        help="epoch bins per heatmap row (default 12)",
    )
    heatmap.set_defaults(fn=_cmd_heatmap)

    compare = commands.add_parser(
        "compare", help="diff two runs' manifests and metric totals"
    )
    compare.add_argument("trace_dir", help="first trace artifact directory")
    compare.add_argument("trace_dir_b", help="second trace artifact directory")
    compare.set_defaults(fn=_cmd_compare)

    export = commands.add_parser(
        "export",
        help="write a finished run's span forest as Chrome/Perfetto "
        "trace-event JSON, worker spans on per-pid tracks",
    )
    export.add_argument("trace_dir", help="trace artifact directory")
    export.add_argument(
        "-o", "--output", default=None, metavar="FILE",
        help="output path (default: TRACE_DIR/trace_events.json)",
    )
    export.set_defaults(fn=_cmd_export)
    return parser


@quiet_on_closed_stdout
def analyze_main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point for ``repro-analyze``."""
    args = build_analyze_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
