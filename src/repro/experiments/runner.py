"""Experiment registry and command-line runner.

``repro-experiments`` (or ``python -m repro.experiments.runner``) runs
any subset of the table/figure reproductions and prints the
paper-vs-measured reports — the textual equivalent of regenerating every
table and figure in the paper's evaluation.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, Dict, List

from repro.cli import quiet_on_closed_stdout
from repro.experiments import (
    aggregation,
    buffering,
    caching,
    churn,
    closedloop,
    facilitynet,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fleet,
    linearity,
    matchmaking,
    sourcemodel,
    table1,
    table2,
    table3,
    table4,
)
from repro.experiments.base import ExperimentOutput, RunConfig, RunConfigError
from repro.matchmaking import POLICIES, RTT_PROFILES, SCENARIOS

#: Experiment modules in paper order (each exposes EXPERIMENT_ID, TITLE, run).
_MODULES = (
    table1,
    table2,
    table3,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    table4,
    fig14,
    fig15,
    caching,
    linearity,
    buffering,
    aggregation,
    closedloop,
    sourcemodel,
    fleet,
    facilitynet,
    matchmaking,
    churn,
)

#: All experiments in paper order.
REGISTRY: Dict[str, Callable[[int, RunConfig], ExperimentOutput]] = {
    module.EXPERIMENT_ID: module.run for module in _MODULES
}

#: One-line description of each experiment (shown by ``--list``).
DESCRIPTIONS: Dict[str, str] = {
    module.EXPERIMENT_ID: module.TITLE for module in _MODULES
}


def _unknown_experiment(experiment_id: str) -> str:
    return (
        f"unknown experiment {experiment_id!r}; "
        f"known: {', '.join(sorted(REGISTRY))}"
    )


#: The :class:`RunConfig` fields set by a same-named CLI flag.  The cache
#: comes from ``--cache-dir`` instead, and is left out of the fingerprint
#: because cached results are bit-identical to recomputed ones.
_KNOBS = tuple(f.name for f in fields(RunConfig) if f.name != "cache")


def _flag(field: str) -> str:
    """The CLI flag that sets :class:`RunConfig` field ``field``."""
    return "--" + field.replace("_", "-")


def config_fingerprint(ids: List[str], seed: int, config: RunConfig) -> str:
    """Digest of everything that shapes a run's results.

    Hashes the effective values, so a flag given at its default value
    and an omitted flag describe the same run; two manifests with equal
    fingerprints are comparable runs.
    """
    from repro.obs.export import fingerprint

    return fingerprint(
        {
            "seed": seed,
            "experiments": ids,
            **{name: getattr(config, name) for name in _KNOBS},
        }
    )


def run_experiments(
    ids: List[str], seed: int = 0, config: RunConfig = RunConfig()
) -> List[ExperimentOutput]:
    """Run the named experiments under one configuration."""
    from repro import obs

    outputs = []
    for experiment_id in ids:
        if experiment_id not in REGISTRY:
            raise KeyError(_unknown_experiment(experiment_id))
        with obs.span("experiment", id=experiment_id, seed=seed):
            outputs.append(REGISTRY[experiment_id](seed, config))
    return outputs


def _writable_directory(text: str) -> str:
    """Validate a directory path that must be usable now or creatable.

    Rejects paths whose parent does not exist and paths that exist but
    are not writable directories, so a long experiment run fails at
    argument parsing (exit 2) instead of at its first write.  Shared by
    ``--cache-dir`` and ``--trace-dir``.
    """
    path = Path(text)
    if path.exists():
        if not path.is_dir():
            raise argparse.ArgumentTypeError(
                f"{text!r} exists and is not a directory"
            )
        if not os.access(path, os.W_OK):
            raise argparse.ArgumentTypeError(f"{text!r} is not writable")
        return text
    parent = path.parent if str(path.parent) else Path(".")
    if not parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"parent directory {str(parent)!r} does not exist "
            "(create it first, or check the path for typos)"
        )
    if not os.access(parent, os.W_OK):
        raise argparse.ArgumentTypeError(
            f"cannot create {text!r}: parent directory "
            f"{str(parent)!r} is not writable"
        )
    return text


#: argparse types for ``--cache-dir`` / ``--trace-dir`` (same contract).
_cache_dir = _writable_directory
_trace_dir = _writable_directory


def _cannot_create(flag: str, path: str, error: OSError) -> int:
    """Report a directory the OS refused to create; the CLI exit code."""
    reason = error.strerror or error
    print(f"error: cannot create {flag} {path!r}: {reason}", file=sys.stderr)
    return 2


@quiet_on_closed_stdout
def main(argv: List[str] = None) -> int:
    """CLI entry point: run experiments and print reports."""
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's tables and figures."
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help="experiment ids (default: all); e.g. table1 fig5 table4",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the facilitynet experiment's main "
        "packet ingress (fleet and matchmaking pin their own 1- and "
        "2-worker cross-checks); default: one per CPU, 1 forces serial",
    )
    parser.add_argument(
        "--cache-dir",
        type=_cache_dir,
        default=None,
        metavar="DIR",
        help="content-addressed disk cache for per-server simulation "
        "results (created if missing; the parent must exist and be "
        "writable); a warm re-run replays cached windows bit-identically "
        "instead of resimulating",
    )
    parser.add_argument(
        "--trace-dir",
        type=_trace_dir,
        default=None,
        metavar="DIR",
        help="write run telemetry here (created if missing; the parent "
        "must exist and be writable): streaming per-epoch/per-hop JSONL, "
        "columnar .npz series, span timings and a manifest.json tying "
        "them to the seed, config fingerprint and git revision",
    )
    parser.add_argument(
        "--policy",
        # derived from the policy registry, so a newly registered policy
        # is immediately addressable from the CLI
        choices=sorted(POLICIES),
        default=None,
        help="restrict the matchmaking experiment to one server-selection "
        "policy (default: compare all of them)",
    )
    parser.add_argument(
        "--pool-size",
        type=int,
        default=None,
        metavar="N",
        help="shared player-pool size for the matchmaking experiment "
        "(default: five players per facility slot)",
    )
    parser.add_argument(
        "--rtt-profile",
        choices=sorted(RTT_PROFILES),
        default=None,
        help="region/server RTT geometry for the matchmaking experiment "
        f"(default: {RunConfig.rtt_profile}; uniform makes every pair "
        "equidistant)",
    )
    parser.add_argument(
        "--alpha",
        type=float,
        default=None,
        metavar="A",
        help="latency_aware occupancy weight: score = alpha * free-slot "
        f"share - beta * normalised RTT (default: {RunConfig.alpha})",
    )
    parser.add_argument(
        "--beta",
        type=float,
        default=None,
        metavar="B",
        help=f"latency_aware RTT weight (default: {RunConfig.beta}; 0 "
        "degenerates to least-loaded placement)",
    )
    parser.add_argument(
        "--scenario",
        # derived from the scenario registry, so a newly registered
        # scenario is immediately addressable from the CLI
        choices=sorted(SCENARIOS),
        default=None,
        help="scripted demand scenario for the churn experiment "
        f"(default: {RunConfig.scenario})",
    )
    parser.add_argument(
        "--qoe-duration-floor",
        type=float,
        default=None,
        metavar="F",
        help="churn experiment: asymptotic session-duration multiplier "
        f"for arbitrarily bad RTT, in (0, 1] (default: "
        f"{RunConfig.qoe_duration_floor:g})",
    )
    parser.add_argument(
        "--qoe-rtt-good",
        type=float,
        default=None,
        metavar="MS",
        help="churn experiment: RTT (ms) at or below which sessions are "
        f"full length (default: {RunConfig.qoe_rtt_good:g})",
    )
    parser.add_argument(
        "--qoe-rtt-scale",
        type=float,
        default=None,
        metavar="MS",
        help="churn experiment: exponential decay scale (ms) of the "
        "duration multiplier beyond the good-RTT threshold "
        f"(default: {RunConfig.qoe_rtt_scale:g})",
    )
    parser.add_argument(
        "--qoe-balk-escalation",
        type=float,
        default=None,
        metavar="F",
        help="churn experiment: retry-probability multiplier per prior "
        "consecutive refusal, in (0, 1] (default: "
        f"{RunConfig.qoe_balk_escalation:g})",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list experiment ids with one-line descriptions and exit",
    )
    args = parser.parse_args(argv)
    try:
        # flags left unset fall back to the RunConfig defaults
        config = RunConfig(
            **{
                name: getattr(args, name)
                for name in _KNOBS
                if getattr(args, name) is not None
            }
        )
    except RunConfigError as error:
        parser.error(f"argument {_flag(error.field)}: {error.message}")

    if args.list:
        width = max(len(experiment_id) for experiment_id in REGISTRY)
        for experiment_id in REGISTRY:
            print(f"{experiment_id:<{width}}  {DESCRIPTIONS[experiment_id]}")
        return 0

    ids = args.experiments or list(REGISTRY)
    unknown = [experiment_id for experiment_id in ids if experiment_id not in REGISTRY]
    if unknown:
        print(f"error: {_unknown_experiment(unknown[0])}", file=sys.stderr)
        return 2

    # _writable_directory only predicts that a directory can be made;
    # the mkdir below is the real test, and it fails cleanly too
    if args.cache_dir is not None:
        from repro.fleet.cache import ShardCache

        try:
            config = replace(config, cache=ShardCache(args.cache_dir))
        except OSError as error:
            return _cannot_create("--cache-dir", args.cache_dir, error)

    if args.trace_dir is not None:
        from repro import obs

        try:
            obs.start_trace_session(
                args.trace_dir,
                seed=args.seed,
                experiments=ids,
                config_fingerprint=config_fingerprint(ids, args.seed, config),
            )
        except OSError as error:
            return _cannot_create("--trace-dir", args.trace_dir, error)

    manifest_path = None
    trace_session = None
    try:
        outputs = run_experiments(ids, seed=args.seed, config=config)
    except RunConfigError as error:
        # a value judged only at run time (--pool-size against the
        # seed-derived facility) is still a clean CLI error
        print(f"error: {_flag(error.field)}: {error.message}", file=sys.stderr)
        return 2
    finally:
        if args.trace_dir is not None:
            from repro import obs

            trace_session = obs.current_session()
            if trace_session is not None:
                manifest_path = obs.end_trace_session()
    failures = 0
    for output in outputs:
        print(output.render())
        print()
        if not output.passed:
            failures += 1
    print(
        f"{len(outputs) - failures}/{len(outputs)} experiments reproduced "
        "within tolerance"
    )
    if config.cache is not None:
        # stats only make sense when a cache dir is active; the line
        # names the directory so multi-cache workflows stay attributable
        print(config.cache.stats_line())
    if manifest_path is not None:
        print(f"trace {args.trace_dir}: manifest at {manifest_path}")
        print(trace_session.rollup_line())
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
