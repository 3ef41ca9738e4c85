"""Experiment plumbing shared by every table/figure reproduction.

Each experiment module exposes ``run(seed=0, config=RunConfig()) ->
ExperimentOutput``.  :class:`RunConfig` holds every knob of a run and is
validated once, when it is built; the paper's tables read only the seed,
while the extensions (``matchmaking``, ``churn``, ``facilitynet``,
``fleet``) read the fields they document.  The output carries
paper-vs-measured :class:`ComparisonRow` entries (the quantitative
claims), free-form notes (scaling caveats), and named extra artifacts
(series arrays) that examples and tests can inspect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.report import ComparisonRow, all_rows_ok, render_table
from repro.matchmaking import (
    POLICIES,
    SCENARIOS,
    QoeConfig,
    make_rtt_profile,
    validate_score_weight,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.cache import ShardCache

#: ``RunConfig`` QoE field -> the :class:`QoeConfig` field it sets.
_QOE_FIELDS = {
    "qoe_duration_floor": "duration_floor",
    "qoe_rtt_good": "rtt_good_ms",
    "qoe_rtt_scale": "rtt_scale_ms",
    "qoe_balk_escalation": "balk_escalation",
}
_QOE_DEFAULTS = QoeConfig()


class RunConfigError(ValueError):
    """An invalid :class:`RunConfig` value; ``field`` names the knob."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


@dataclass(frozen=True)
class RunConfig:
    """Every knob of one experiment run, validated once at construction.

    ``workers=None`` means one worker process per CPU and ``cache=None``
    means no disk cache; neither changes any result.  ``policy=None``
    sweeps every matchmaking policy and ``pool_size=None`` gives five
    players per facility slot.  An invalid value raises
    :class:`RunConfigError` naming the field.
    """

    #: Worker processes for ``facilitynet``'s main ingress.
    workers: Optional[int] = None
    #: Disk cache for sharded per-server results (``fleet``,
    #: ``matchmaking``, ``facilitynet``).
    cache: Optional[ShardCache] = None
    #: ``matchmaking``: restrict the sweep to one selection policy.
    policy: Optional[str] = None
    #: ``matchmaking``: shared player-pool size.
    pool_size: Optional[int] = None
    #: ``matchmaking``: region/server RTT geometry.
    rtt_profile: str = "global"
    #: ``matchmaking``: latency_aware occupancy and RTT score weights.
    alpha: float = 1.0
    beta: float = 1.0
    #: ``churn``: scripted demand scenario.
    scenario: str = "flash_crowd"
    #: ``churn``: the QoE coupling (see :class:`QoeConfig`).
    qoe_duration_floor: float = _QOE_DEFAULTS.duration_floor
    qoe_rtt_good: float = _QOE_DEFAULTS.rtt_good_ms
    qoe_rtt_scale: float = _QOE_DEFAULTS.rtt_scale_ms
    qoe_balk_escalation: float = _QOE_DEFAULTS.balk_escalation

    def __post_init__(self) -> None:
        for name in ("workers", "pool_size"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise RunConfigError(name, f"must be >= 1, got {value!r}")
        if self.policy is not None and self.policy not in POLICIES:
            raise RunConfigError(
                "policy",
                f"unknown policy {self.policy!r}; "
                f"known: {', '.join(POLICIES)}",
            )
        if self.scenario not in SCENARIOS:
            raise RunConfigError(
                "scenario",
                f"unknown scenario {self.scenario!r}; "
                f"known: {', '.join(sorted(SCENARIOS))}",
            )
        try:
            make_rtt_profile(self.rtt_profile)
        except KeyError as error:
            raise RunConfigError("rtt_profile", error.args[0]) from None
        for name in ("alpha", "beta"):
            try:
                validate_score_weight(name, getattr(self, name))
            except ValueError as error:
                raise RunConfigError(name, str(error)) from None
        for name, qoe_field in _QOE_FIELDS.items():
            try:
                QoeConfig(**{qoe_field: getattr(self, name)})
            except ValueError as error:
                raise RunConfigError(name, str(error)) from None

    def qoe_config(self) -> QoeConfig:
        """The enabled QoE coupling these fields describe."""
        return QoeConfig(
            enabled=True,
            **{qoe: getattr(self, name) for name, qoe in _QOE_FIELDS.items()},
        )


@dataclass
class ExperimentOutput:
    """The result of reproducing one table or figure."""

    experiment_id: str
    title: str
    rows: List[ComparisonRow] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True when every comparison row lies within its tolerance."""
        return all_rows_ok(self.rows)

    def render(self) -> str:
        """Full plain-text report for this experiment."""
        return render_table(
            f"{self.experiment_id}: {self.title}", self.rows, notes=self.notes
        )

    def row(self, name: str) -> ComparisonRow:
        """Look up one comparison row by name."""
        for entry in self.rows:
            if entry.name == name:
                return entry
        raise KeyError(f"no row named {name!r} in {self.experiment_id}")
