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
from pathlib import Path
from typing import Callable, Dict, List

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
from repro.experiments.base import ExperimentOutput
from repro.fleet.execution import set_default_workers

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
REGISTRY: Dict[str, Callable[[int], ExperimentOutput]] = {
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


def run_experiments(ids: List[str], seed: int = 0) -> List[ExperimentOutput]:
    """Run the named experiments and return their outputs."""
    from repro import obs

    outputs = []
    for position, experiment_id in enumerate(ids):
        if experiment_id not in REGISTRY:
            raise KeyError(_unknown_experiment(experiment_id))
        obs.progress(
            "experiments", position, len(ids), current=experiment_id
        )
        with obs.span("experiment", id=experiment_id, seed=seed):
            outputs.append(REGISTRY[experiment_id](seed))
    obs.progress("experiments", len(ids), len(ids))
    return outputs


def _positive_int(text: str) -> int:
    """argparse type for options that must be a strictly positive int."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for options that must be a strictly positive float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _score_weight(text: str) -> float:
    """argparse type for ``--alpha``/``--beta``: a finite float >= 0."""
    from repro.matchmaking import validate_score_weight

    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    try:
        return validate_score_weight("value", value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))


def _nonnegative_float(text: str) -> float:
    """argparse type for options that must be a finite float >= 0."""
    import math

    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be finite and >= 0, got {text}"
        )
    return value


def _unit_fraction(text: str) -> float:
    """argparse type for QoE fractions that must lie in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must lie in (0, 1], got {text}"
        )
    return value


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
        type=_positive_int,
        default=None,
        help="worker processes for sharded experiments (e.g. fleet); "
        "default: one per CPU, 1 forces serial",
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
        "--sample-interval",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="with --trace-dir: run a background resource sampler at "
        "this interval (seconds), streaming wall clock, RSS, CPU time "
        "and the open span path into resources.jsonl for "
        "'repro-analyze watch'; observers only, the simulation stays "
        "bit-identical",
    )
    parser.add_argument(
        "--policy",
        # derived from the policy registry, so a newly registered policy
        # is immediately addressable from the CLI
        choices=sorted(matchmaking.POLICIES),
        default=None,
        help="restrict the matchmaking experiment to one server-selection "
        "policy (default: compare all of them)",
    )
    parser.add_argument(
        "--pool-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help="shared player-pool size for the matchmaking experiment "
        "(default: five players per facility slot)",
    )
    parser.add_argument(
        "--rtt-profile",
        choices=sorted(matchmaking.RTT_PROFILES),
        default=None,
        help="region/server RTT geometry for the matchmaking experiment "
        "(default: global; uniform makes every pair equidistant)",
    )
    parser.add_argument(
        "--alpha",
        type=_score_weight,
        default=None,
        metavar="A",
        help="latency_aware occupancy weight: score = alpha * free-slot "
        "share - beta * normalised RTT (default: 1.0)",
    )
    parser.add_argument(
        "--beta",
        type=_score_weight,
        default=None,
        metavar="B",
        help="latency_aware RTT weight (default: 1.0; 0 degenerates to "
        "least-loaded placement)",
    )
    parser.add_argument(
        "--scenario",
        # derived from the scenario registry, so a newly registered
        # scenario is immediately addressable from the CLI
        choices=sorted(churn.SCENARIOS),
        default=None,
        help="scripted demand scenario for the churn experiment "
        "(default: flash_crowd)",
    )
    parser.add_argument(
        "--qoe-duration-floor",
        type=_unit_fraction,
        default=None,
        metavar="F",
        help="churn experiment: asymptotic session-duration multiplier "
        "for arbitrarily bad RTT, in (0, 1] (default: 0.3)",
    )
    parser.add_argument(
        "--qoe-rtt-good",
        type=_nonnegative_float,
        default=None,
        metavar="MS",
        help="churn experiment: RTT (ms) at or below which sessions are "
        "full length (default: 60)",
    )
    parser.add_argument(
        "--qoe-rtt-scale",
        type=_positive_float,
        default=None,
        metavar="MS",
        help="churn experiment: exponential decay scale (ms) of the "
        "duration multiplier beyond the good-RTT threshold "
        "(default: 120)",
    )
    parser.add_argument(
        "--qoe-balk-escalation",
        type=_unit_fraction,
        default=None,
        metavar="F",
        help="churn experiment: retry-probability multiplier per prior "
        "consecutive refusal, in (0, 1] (default: 0.6)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list experiment ids with one-line descriptions and exit",
    )
    args = parser.parse_args(argv)

    if args.sample_interval is not None and args.trace_dir is None:
        parser.error("--sample-interval requires --trace-dir")

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

    cache = None
    if args.cache_dir is not None:
        from repro.fleet.cache import ShardCache, set_default_cache

        cache = ShardCache(args.cache_dir)
        set_default_cache(cache)
    if args.policy is not None:
        matchmaking.set_default_policy(args.policy)
    if args.pool_size is not None:
        matchmaking.set_default_pool_size(args.pool_size)
    if args.rtt_profile is not None:
        matchmaking.set_default_rtt_profile(args.rtt_profile)
    if args.alpha is not None:
        matchmaking.set_default_alpha(args.alpha)
    if args.beta is not None:
        matchmaking.set_default_beta(args.beta)
    if args.scenario is not None:
        churn.set_default_scenario(args.scenario)
    if args.qoe_duration_floor is not None:
        churn.set_default_qoe_duration_floor(args.qoe_duration_floor)
    if args.qoe_rtt_good is not None:
        churn.set_default_qoe_rtt_good(args.qoe_rtt_good)
    if args.qoe_rtt_scale is not None:
        churn.set_default_qoe_rtt_scale(args.qoe_rtt_scale)
    if args.qoe_balk_escalation is not None:
        churn.set_default_qoe_balk_escalation(args.qoe_balk_escalation)

    if args.workers is not None:
        set_default_workers(args.workers)

    manifest_path = None
    trace_session = None
    try:
        if args.trace_dir is not None:
            from repro import obs
            from repro.obs.export import fingerprint

            # the fingerprint covers every knob that shapes the run, so
            # two manifests with equal fingerprints are comparable runs
            obs.start_trace_session(
                args.trace_dir,
                sample_interval=args.sample_interval,
                seed=args.seed,
                experiments=ids,
                config_fingerprint=fingerprint(
                    {
                        "seed": args.seed,
                        "experiments": ids,
                        "workers": args.workers,
                        "policy": args.policy,
                        "pool_size": args.pool_size,
                        "rtt_profile": args.rtt_profile,
                        "alpha": args.alpha,
                        "beta": args.beta,
                        "scenario": args.scenario,
                        "qoe_duration_floor": args.qoe_duration_floor,
                        "qoe_rtt_good": args.qoe_rtt_good,
                        "qoe_rtt_scale": args.qoe_rtt_scale,
                        "qoe_balk_escalation": args.qoe_balk_escalation,
                    }
                ),
            )
        outputs = run_experiments(ids, seed=args.seed)
    except ValueError as error:
        # feasibility of --pool-size depends on the (seed-derived)
        # facility's slot count, so it can only be judged at run time;
        # still surface it as a clean CLI error, not a traceback
        if args.pool_size is None or "pool_size" not in str(error):
            raise
        print(f"error: --pool-size: {error}", file=sys.stderr)
        return 2
    finally:
        if args.trace_dir is not None:
            from repro import obs

            trace_session = obs.current_session()
            if trace_session is not None:
                manifest_path = obs.end_trace_session()
        if cache is not None:
            set_default_cache(None)
        set_default_workers(None)
        matchmaking.set_default_policy(None)
        matchmaking.set_default_pool_size(None)
        matchmaking.set_default_rtt_profile(None)
        matchmaking.set_default_alpha(None)
        matchmaking.set_default_beta(None)
        churn.set_default_scenario(None)
        churn.set_default_qoe_duration_floor(None)
        churn.set_default_qoe_rtt_good(None)
        churn.set_default_qoe_rtt_scale(None)
        churn.set_default_qoe_balk_escalation(None)
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
    if cache is not None:
        # stats only make sense when a cache dir is active; the line
        # names the directory so multi-cache workflows stay attributable
        print(cache.stats_line())
    if manifest_path is not None:
        print(f"trace {args.trace_dir}: manifest at {manifest_path}")
        print(trace_session.rollup_line())
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
