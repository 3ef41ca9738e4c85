"""Scripted demand scenarios: declarative events that perturb the pool.

The closed loop so far only ever sees its own stationary (diurnally
modulated) demand.  Real facilities are judged on how they absorb
*scripted* shocks — a tournament announcement, a regional outage, a
patch-day download storm — and on how fast placement policy brings
occupancy and RTT back to baseline afterwards (the recovery
trajectories :class:`repro.core.facility.RecoveryStats` scores).

A :class:`DemandScenario` is a named tuple of declarative
:class:`DemandEvent`\\ s, each active over an epoch interval
``[start_epoch, end_epoch)``:

* :class:`FlashCrowd` — multiplies the per-idle-player attempt hazard
  (optionally only in named regions): the attempt-rate spike at epoch
  ``k``;
* :class:`RegionalOutage` — scales the *effective capacity* of a
  region's servers (or an explicit server subset) by
  ``capacity_scale``; downed servers stop admitting while their live
  sessions play out (drain semantics, no eviction), and
  ``demand_scale`` optionally moves that region's demand too;
* :class:`PatchDayStorm` — a facility-wide hazard bump whose admitted
  sessions all ``wants_download`` (the download model rides along).

Scenarios are *compiled* once per run against the pool/fleet shape into
per-epoch modulation arrays (:class:`CompiledScenario`), and the engine
and its test oracle consult the same compiled object through the same
methods, so a scenario never perturbs RNG stream positions: hazard scaling reuses the
per-epoch arrival uniforms with a different threshold, and capacity
scaling changes only the slot arithmetic.  ``scenario=None`` is the
exact pre-scenario code path.

Stock scenarios live in :data:`SCENARIOS` and are addressable from the
CLI (``repro-experiments churn --scenario flash_crowd``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class DemandEvent:
    """One scripted perturbation, active over ``[start_epoch, end_epoch)``."""

    start_epoch: int
    end_epoch: int

    def __post_init__(self) -> None:
        if self.start_epoch < 0:
            raise ValueError(
                f"start_epoch must be >= 0: {self.start_epoch!r}"
            )
        if self.end_epoch <= self.start_epoch:
            raise ValueError(
                f"end_epoch ({self.end_epoch!r}) must exceed start_epoch "
                f"({self.start_epoch!r})"
            )


def _check_scale(name: str, value: float, low: float = 0.0) -> None:
    """Validate a finite scale factor strictly above ``low``."""
    if not (math.isfinite(value) and value > low):
        raise ValueError(f"{name} must be finite and > {low}: {value!r}")


@dataclass(frozen=True)
class FlashCrowd(DemandEvent):
    """Attempt-rate spike: hazard × ``rate_scale`` while active.

    ``regions`` restricts the spike to named regions; empty means
    facility-wide.
    """

    rate_scale: float = 3.0
    regions: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "regions", tuple(self.regions))
        _check_scale("rate_scale", self.rate_scale)


@dataclass(frozen=True)
class RegionalOutage(DemandEvent):
    """Capacity loss: a region's servers (or ``servers``) stop admitting.

    ``capacity_scale`` in ``[0, 1]`` scales the affected servers'
    effective slot counts (0 = fully down); live sessions play out —
    the occupancy drains, it is never evicted.  ``demand_scale``
    optionally moves the region's demand at the same time (players
    distracted by the outage, or piling onto status pages).
    """

    region: Optional[str] = None
    servers: Tuple[int, ...] = ()
    capacity_scale: float = 0.0
    demand_scale: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "servers", tuple(self.servers))
        if self.region is None and not self.servers:
            raise ValueError(
                "a RegionalOutage needs a region name or explicit servers"
            )
        if not (
            math.isfinite(self.capacity_scale)
            and 0.0 <= self.capacity_scale <= 1.0
        ):
            raise ValueError(
                f"capacity_scale must lie in [0, 1]: {self.capacity_scale!r}"
            )
        _check_scale("demand_scale", self.demand_scale)


@dataclass(frozen=True)
class PatchDayStorm(DemandEvent):
    """Patch-day download storm: hazard bump + forced downloads.

    While active the facility-wide hazard scales by ``rate_scale`` and
    (with ``force_downloads``) every admitted session wants the
    download, riding the existing per-session download model.
    """

    rate_scale: float = 1.8
    force_downloads: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_scale("rate_scale", self.rate_scale)


@dataclass(frozen=True)
class DemandScenario:
    """A named, ordered tuple of :class:`DemandEvent`\\ s."""

    name: str
    events: Tuple[DemandEvent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if not self.name:
            raise ValueError("a DemandScenario needs a non-empty name")
        if not self.events:
            raise ValueError(
                f"scenario {self.name!r} needs at least one event"
            )
        for event in self.events:
            if not isinstance(event, DemandEvent):
                raise TypeError(
                    f"scenario events must be DemandEvents, got {event!r}"
                )

    @property
    def first_epoch(self) -> int:
        """Earliest epoch any event becomes active."""
        return min(event.start_epoch for event in self.events)

    @property
    def last_epoch(self) -> int:
        """Epoch after which every event has ended (exclusive)."""
        return max(event.end_epoch for event in self.events)

    def compile(
        self,
        n_epochs: int,
        region_names: Tuple[str, ...],
        server_regions: np.ndarray,
    ) -> "CompiledScenario":
        """Resolve the events against a concrete pool/fleet shape.

        Unknown region names raise :class:`ValueError`; events entirely
        past ``n_epochs`` simply never activate.  The result holds
        per-epoch modulation arrays the engine and its test oracle
        consult identically.
        """
        server_regions = np.asarray(server_regions, dtype=np.int64)
        n_servers = int(server_regions.size)
        n_regions = len(region_names)
        region_index = {name: i for i, name in enumerate(region_names)}

        def resolve_region(name: str) -> int:
            if name not in region_index:
                raise ValueError(
                    f"scenario {self.name!r} names unknown region "
                    f"{name!r}; known: {', '.join(region_names)}"
                )
            return region_index[name]

        hazard_scale = np.ones((n_epochs, n_regions), dtype=np.float64)
        capacity_scale = np.ones((n_epochs, n_servers), dtype=np.float64)
        force_downloads = np.zeros(n_epochs, dtype=bool)
        for event in self.events:
            span = slice(
                min(event.start_epoch, n_epochs), min(event.end_epoch, n_epochs)
            )
            if isinstance(event, FlashCrowd):
                if event.regions:
                    for name in event.regions:
                        hazard_scale[span, resolve_region(name)] *= (
                            event.rate_scale
                        )
                else:
                    hazard_scale[span, :] *= event.rate_scale
            elif isinstance(event, RegionalOutage):
                affected = np.zeros(n_servers, dtype=bool)
                if event.region is not None:
                    affected |= server_regions == resolve_region(event.region)
                for server in event.servers:
                    if not 0 <= server < n_servers:
                        raise ValueError(
                            f"scenario {self.name!r} names server "
                            f"{server} outside [0, {n_servers})"
                        )
                    affected[server] = True
                capacity_scale[span, affected] *= event.capacity_scale
                if event.demand_scale != 1.0 and event.region is not None:
                    hazard_scale[span, resolve_region(event.region)] *= (
                        event.demand_scale
                    )
            elif isinstance(event, PatchDayStorm):
                hazard_scale[span, :] *= event.rate_scale
                if event.force_downloads:
                    force_downloads[span] = True
            else:  # a bare DemandEvent modulates nothing
                raise TypeError(
                    f"cannot compile bare DemandEvent {event!r}; use a "
                    "FlashCrowd / RegionalOutage / PatchDayStorm subclass"
                )
        return CompiledScenario(
            name=self.name,
            hazard_scale=hazard_scale,
            capacity_scale=capacity_scale,
            force_downloads=force_downloads,
        )


@dataclass(frozen=True)
class CompiledScenario:
    """A scenario resolved to per-epoch modulation arrays.

    The engine and its test oracle call the same methods per epoch (the
    engine takes :meth:`region_attempt_probabilities`, which the
    oracle's :meth:`attempt_probabilities` gathers per player), so
    scenario arithmetic is shared code and bit-identity between them is
    by construction.
    """

    name: str
    #: ``(n_epochs, n_regions)`` multiplicative hazard scale.
    hazard_scale: np.ndarray
    #: ``(n_epochs, n_servers)`` multiplicative effective-capacity scale.
    capacity_scale: np.ndarray
    #: Per-epoch flag: admitted sessions all want the download.
    force_downloads: np.ndarray

    @property
    def any_capacity_modulation(self) -> bool:
        """Whether any epoch scales any server's capacity.

        When true the engines run the careful slot accounting
        (occupancy may exceed a reduced effective capacity while
        sessions drain, so per-server free counts can go negative).
        """
        return bool(np.any(self.capacity_scale != 1.0))

    def attempt_probabilities(
        self,
        epoch: int,
        hazard: float,
        dt: float,
        player_regions: np.ndarray,
    ) -> np.ndarray:
        """Per-player attempt probability for this epoch's idle players.

        Scenario-free runs compute the scalar ``1 - exp(-hazard * dt)``;
        with a scenario active the engine and its test oracle call this
        vectorised form for *every* epoch (scaled or not), so they share
        one set of IEEE operations.  The expression is evaluated once
        per region and gathered per player: each element goes through
        the same operations as the per-player form.
        """
        return self.region_attempt_probabilities(epoch, hazard, dt)[
            player_regions
        ]

    def region_attempt_probabilities(
        self, epoch: int, hazard: float, dt: float
    ) -> np.ndarray:
        """Per-region attempt probability for ``epoch``: the one
        expression :meth:`attempt_probabilities` gathers per player.

        The columnar engine compares its draws against this vector
        directly (against one scalar when every region's value is
        equal, as it is whenever the epoch's hazard is unscaled).
        """
        scale = self.hazard_scale[epoch]
        return 1.0 - np.exp(-hazard * scale * dt)

    def capacities_at(self, epoch: int, capacities: np.ndarray) -> np.ndarray:
        """Effective per-server slot counts for ``epoch``.

        Returns the input object untouched on unscaled epochs, so
        downstream identity checks (and the policies' view of the
        capacity array) match the scenario-free run outside events.
        """
        scale = self.capacity_scale[epoch]
        if np.all(scale == 1.0):
            return capacities
        return np.floor(capacities * scale).astype(np.int64)

    def forces_downloads(self, epoch: int) -> bool:
        """Whether this epoch's admissions all want the download."""
        return bool(self.force_downloads[epoch])


# ----------------------------------------------------------------------
def flash_crowd_scenario(n_epochs: int) -> DemandScenario:
    """Facility-wide attempt-rate spike around 40% of the horizon."""
    start = max(n_epochs * 2 // 5, 1)
    end = min(start + max(n_epochs // 10, 1), n_epochs)
    return DemandScenario(
        "flash_crowd", (FlashCrowd(start, end, rate_scale=3.5),)
    )


def regional_outage_scenario(
    n_epochs: int, region: str = "eu"
) -> DemandScenario:
    """One region's servers go down mid-run; sessions drain, no eviction.

    ``region`` defaults to ``"eu"`` from the stock
    :class:`~repro.matchmaking.pool.RegionProfile`; custom region
    profiles pass their own name (compile rejects unknown ones).
    """
    start = max(n_epochs * 2 // 5, 1)
    end = min(start + max(n_epochs // 6, 1), n_epochs)
    return DemandScenario(
        "regional_outage",
        (RegionalOutage(start, end, region=region, capacity_scale=0.0),),
    )


def patch_day_scenario(n_epochs: int) -> DemandScenario:
    """Patch drops at a quarter of the horizon: storm + forced downloads."""
    start = max(n_epochs // 4, 1)
    end = min(start + max(n_epochs // 8, 1), n_epochs)
    return DemandScenario(
        "patch_day",
        (PatchDayStorm(start, end, rate_scale=2.0, force_downloads=True),),
    )


#: Stock scenario factories by name (each takes ``n_epochs``).
SCENARIOS: Dict[str, Callable[[int], DemandScenario]] = {
    "flash_crowd": flash_crowd_scenario,
    "regional_outage": regional_outage_scenario,
    "patch_day": patch_day_scenario,
}


def make_scenario(name: str, n_epochs: int) -> DemandScenario:
    """Build a stock scenario by registry name for an ``n_epochs`` run."""
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}"
        )
    if n_epochs < 1:
        raise ValueError(f"n_epochs must be >= 1: {n_epochs!r}")
    return SCENARIOS[name](n_epochs)
