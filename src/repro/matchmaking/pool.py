"""The facility-wide player pool: finite demand that refills the fleet.

The paper's provisioning story hinges on the player population, not the
links: a saturated server stays pinned at capacity because the pool
refills it as fast as sessions churn.  :class:`PoolConfig` captures that
demand side as a *finite* population of players cycling through
idle → attempting → playing → idle, so facility load is endogenous to
the matchmaker's placement and admission decisions rather than an
exogenous per-server arrival rate:

* each **idle** player attempts to join with a diurnally modulated
  per-player rate (the same sinusoid and ``diurnal_phase`` convention as
  :class:`~repro.gameserver.config.ServerProfile`);
* an admitted player **plays** for a lognormal session duration (the
  paper's ≈15 min mean), then returns to the idle pool — the refill
  feedback;
* a refused player either **balks** back to idle or (under admission
  control) **retries** after an exponential delay.

Per-player traits (link-class rate multiplier, download appetite) are
drawn once per player id, vectorised at pool construction, so a
returning player keeps their link class — the identity discipline of
:mod:`repro.gameserver.population` lifted to facility scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.gameserver.config import ServerProfile, olygamer_week
from repro.sim.random import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.fleet.profiles import FleetProfile


@dataclass(frozen=True)
class RegionProfile:
    """Geographic regions the pool's players live in.

    Regions sit on a line in presentation order — a geodesic-style
    abstraction where the index distance ``|i - j|`` stands in for
    geographic distance (0 = same metro, 1 = same continent, 2+ =
    transoceanic).  :mod:`repro.matchmaking.rtt` turns those distances
    into a region×server RTT matrix; ``weights`` set where players are
    drawn from (they need not sum to 1).
    """

    names: Tuple[str, ...] = ("na-west", "na-east", "eu", "apac")
    weights: Tuple[float, ...] = (0.30, 0.30, 0.25, 0.15)

    def __post_init__(self) -> None:
        # coerce to tuples so profiles built from lists compare equal to
        # (and interoperate with) tuple-built ones downstream
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "weights", tuple(self.weights))
        if not self.names:
            raise ValueError("a RegionProfile needs at least one region")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"region names must be unique: {self.names!r}")
        if len(self.weights) != len(self.names):
            raise ValueError(
                f"{len(self.weights)} weights for {len(self.names)} regions"
            )
        if (
            any(not math.isfinite(w) or w < 0 for w in self.weights)
            or not any(w > 0 for w in self.weights)
        ):
            raise ValueError(
                "region weights must be finite and non-negative "
                "with a positive total"
            )

    @property
    def n_regions(self) -> int:
        """Number of regions."""
        return len(self.names)

    def probabilities(self) -> np.ndarray:
        """Normalised region weights (the player-draw distribution)."""
        weights = np.asarray(self.weights, dtype=float)
        return weights / weights.sum()


@dataclass(frozen=True)
class QoeConfig:
    """RTT-coupled quality-of-experience behaviour of the pool.

    Default-off: with ``enabled=False`` the engine never consults this
    config and a run is bit-identical to one built before the knob
    existed.  When enabled, two couplings close the loop *through the
    network* — both are deterministic functions of already-drawn
    randomness, so they consume **zero** extra RNG draws and the engine
    stays bit-identical to its per-attempt test oracle:

    * **session-duration multiplier** — a session's raw lognormal
      duration draw is scaled by :meth:`duration_multiplier` of the
      session's RTT *before* the ``session_duration_min`` clamp: metro
      sessions (RTT at or below ``rtt_good_ms``) are untouched, while
      transoceanic ones decay exponentially toward ``duration_floor``.
      High-ping placement therefore churns faster — congestion → bad
      QoE → churn → load relief;
    * **refusal-balk escalation** — each consecutive refusal multiplies
      the retry probability by ``balk_escalation`` (same uniform draw,
      lower threshold), so players knocked back repeatedly give up
      instead of hammering a full facility forever.  The per-player
      refusal count resets on admission.
    """

    #: Master switch; ``False`` is bit-identical to the pre-QoE engine.
    enabled: bool = False
    #: RTT (ms) at or below which a session is full length.
    rtt_good_ms: float = 60.0
    #: Exponential decay scale (ms) of the duration multiplier.
    rtt_scale_ms: float = 120.0
    #: Asymptotic duration multiplier for arbitrarily bad RTT, in (0, 1].
    duration_floor: float = 0.3
    #: Retry-probability multiplier per prior consecutive refusal, (0, 1].
    balk_escalation: float = 0.6

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rtt_good_ms) and self.rtt_good_ms >= 0):
            raise ValueError(
                f"rtt_good_ms must be finite and >= 0: {self.rtt_good_ms!r}"
            )
        if not (math.isfinite(self.rtt_scale_ms) and self.rtt_scale_ms > 0):
            raise ValueError(
                f"rtt_scale_ms must be finite and positive: "
                f"{self.rtt_scale_ms!r}"
            )
        if not (
            math.isfinite(self.duration_floor)
            and 0.0 < self.duration_floor <= 1.0
        ):
            raise ValueError(
                f"duration_floor must lie in (0, 1]: {self.duration_floor!r}"
            )
        if not (
            math.isfinite(self.balk_escalation)
            and 0.0 < self.balk_escalation <= 1.0
        ):
            raise ValueError(
                f"balk_escalation must lie in (0, 1]: "
                f"{self.balk_escalation!r}"
            )

    def duration_multiplier(self, rtt_ms: float) -> float:
        """Session-duration multiplier for a session at ``rtt_ms``.

        1.0 at or below ``rtt_good_ms``, decaying exponentially toward
        ``duration_floor``.  The engine and its test oracle call this
        exact function per admitted session, so IEEE results agree bit
        for bit.
        """
        if rtt_ms <= self.rtt_good_ms:
            return 1.0
        decay = math.exp(-(rtt_ms - self.rtt_good_ms) / self.rtt_scale_ms)
        return self.duration_floor + (1.0 - self.duration_floor) * decay

    def retry_probability(self, base: float, prior_refusals: int) -> float:
        """Escalated retry probability after ``prior_refusals`` knocks."""
        if prior_refusals <= 0:
            return base
        return base * self.balk_escalation**prior_refusals


@dataclass(frozen=True)
class PoolConfig:
    """Parameters of the shared facility player pool.

    ``attempt_rate_per_player`` is the *idle-state* hazard: the facility
    arrival rate at time ``t`` is ``idle_count(t) × rate × diurnal(t)``,
    which is what closes the loop — a facility that admits more players
    drains its own arrival stream, and churn feeds it back.
    """

    #: Number of distinct players that know about this facility.
    pool_size: int
    #: Per-idle-player connection-attempt rate (per second).
    attempt_rate_per_player: float
    #: Total simulated horizon (seconds); epochs tile it.
    horizon: float
    #: Discrete epoch length (seconds) the pool state advances in.
    epoch_length: float = 60.0

    # -- diurnal modulation (ServerProfile conventions) ----------------
    diurnal_amplitude: float = 0.35
    diurnal_phase: float = 0.0

    # -- session durations ---------------------------------------------
    session_duration_mean: float = 890.0
    session_duration_cv: float = 1.1
    session_duration_min: float = 5.0

    # -- retry/balk behaviour under admission control ------------------
    #: Probability a refused player retries (vs balking to idle); only
    #: consulted for policies with ``retry_on_reject``.
    retry_probability: float = 0.7
    #: Mean of the exponential retry delay (seconds).
    retry_delay_mean: float = 45.0

    # -- per-player traits ---------------------------------------------
    #: Link classes traits are drawn from (Fig 11 heterogeneity).
    base_profile: ServerProfile = field(default_factory=olygamer_week)
    #: Regions players are drawn from (latency-aware matchmaking).
    region_profile: RegionProfile = field(default_factory=RegionProfile)

    # -- RTT-coupled QoE behaviour (default-off) -----------------------
    #: Session-duration and balk coupling to experienced RTT.
    qoe: QoeConfig = field(default_factory=QoeConfig)

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValueError(f"pool_size must be >= 1: {self.pool_size!r}")
        if self.attempt_rate_per_player <= 0:
            raise ValueError(
                "attempt_rate_per_player must be positive: "
                f"{self.attempt_rate_per_player!r}"
            )
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive: {self.horizon!r}")
        if not 0 < self.epoch_length <= self.horizon:
            raise ValueError(
                f"epoch_length must lie in (0, horizon]: {self.epoch_length!r}"
            )
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError(
                f"diurnal_amplitude must lie in [0, 1): {self.diurnal_amplitude!r}"
            )
        if self.session_duration_mean <= 0 or self.session_duration_cv < 0:
            raise ValueError("session duration parameters are invalid")
        if not 0.0 <= self.retry_probability <= 1.0:
            raise ValueError(
                f"retry_probability must lie in [0, 1]: {self.retry_probability!r}"
            )
        if self.retry_delay_mean <= 0:
            raise ValueError(
                f"retry_delay_mean must be positive: {self.retry_delay_mean!r}"
            )

    # ------------------------------------------------------------------
    @property
    def n_epochs(self) -> int:
        """Number of fixed epochs tiling the horizon."""
        return max(1, int(math.ceil(self.horizon / self.epoch_length)))

    def attempt_rate_at(self, t: float) -> float:
        """Diurnally modulated per-idle-player attempt rate at ``t``.

        Same sinusoid as the attempt rate λ(t) that
        :meth:`repro.gameserver.population.PopulationSimulator._draw_attempt_times`
        thins by, so a pool built from a profile reproduces its demand shape.
        """
        phase = 2.0 * math.pi * (t / 86400.0) + self.diurnal_phase
        return self.attempt_rate_per_player * (
            1.0 + self.diurnal_amplitude * math.sin(phase - 0.7)
        )

    def replace(self, **changes) -> "PoolConfig":
        """A copy of the config with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    @classmethod
    def for_fleet(
        cls,
        fleet: "FleetProfile",
        pool_size: Optional[int] = None,
        demand_ratio: float = 1.25,
        epoch_length: float = 60.0,
        **overrides,
    ) -> "PoolConfig":
        """A pool calibrated to a fleet's capacity and demand conventions.

        ``demand_ratio`` targets the offered load: the idle pool's
        aggregate attempt rate times the mean session duration equals
        ``demand_ratio ×`` total facility slots when the facility is
        full, so ratios above 1 keep it saturated (the endogenous-refill
        regime) and ratios below 1 leave slack.  ``pool_size`` defaults
        to five players per slot.

        A ``base_profile`` override is *effective*: session-duration and
        diurnal defaults, the demand-ratio calibration mean and the
        per-player trait draws all derive from the overridden profile,
        never the fleet's — traits and durations always agree.
        """
        base = overrides.get("base_profile", fleet.base_profile)
        total_slots = int(fleet.server_slots().sum())
        if pool_size is None:
            pool_size = 5 * total_slots
        if pool_size <= total_slots:
            raise ValueError(
                f"pool_size {pool_size} must exceed the facility's "
                f"{total_slots} slots for the closed loop to refill"
            )
        if demand_ratio <= 0:
            raise ValueError(f"demand_ratio must be positive: {demand_ratio!r}")
        idle_when_full = pool_size - total_slots
        # calibrate against the duration the pool will actually use, so
        # an overridden session_duration_mean keeps the demand ratio
        mean_duration = overrides.get(
            "session_duration_mean", base.session_duration_mean
        )
        rate = demand_ratio * total_slots / (idle_when_full * mean_duration)
        defaults = dict(
            pool_size=int(pool_size),
            attempt_rate_per_player=rate,
            horizon=fleet.horizon,
            epoch_length=epoch_length,
            diurnal_amplitude=base.diurnal_amplitude,
            diurnal_phase=base.diurnal_phase,
            session_duration_mean=base.session_duration_mean,
            session_duration_cv=base.session_duration_cv,
            session_duration_min=base.session_duration_min,
            base_profile=base,
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass(frozen=True)
class PlayerTraits:
    """Per-player stable traits, drawn once at pool construction.

    Arrays are indexed by player id; a returning player keeps their
    link class across sessions (the Fig 11 bimodality discipline).
    """

    rate_multipliers: np.ndarray
    link_classes: Tuple[str, ...]
    link_class_index: np.ndarray
    wants_download: np.ndarray
    region_names: Tuple[str, ...]
    region_index: np.ndarray

    @classmethod
    def draw(cls, config: PoolConfig, seed: int) -> "PlayerTraits":
        """Vectorised trait draws for every player in the pool."""
        rng = np.random.default_rng(derive_seed(seed, "matchmaking-traits"))
        classes = config.base_profile.link_classes
        weights = np.asarray([c.weight for c in classes], dtype=float)
        chosen = rng.choice(
            len(classes), size=config.pool_size, p=weights / weights.sum()
        )
        means = np.asarray([c.rate_multiplier_mean for c in classes])[chosen]
        stds = np.asarray([c.rate_multiplier_std for c in classes])[chosen]
        maxes = np.asarray([c.rate_multiplier_max for c in classes])[chosen]
        multipliers = np.clip(
            rng.normal(means, stds), 0.55, maxes
        )
        downloads = (
            rng.uniform(size=config.pool_size)
            < config.base_profile.download_probability
        )
        # regions come from their own named stream so adding them never
        # perturbed the pre-existing link-class/download draws
        rng_region = np.random.default_rng(
            derive_seed(seed, "matchmaking-regions")
        )
        regions = rng_region.choice(
            config.region_profile.n_regions,
            size=config.pool_size,
            p=config.region_profile.probabilities(),
        )
        return cls(
            rate_multipliers=multipliers,
            link_classes=tuple(c.name for c in classes),
            link_class_index=chosen.astype(np.int64),
            wants_download=downloads,
            region_names=config.region_profile.names,
            region_index=regions.astype(np.int64),
        )
