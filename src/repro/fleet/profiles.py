"""Heterogeneous hosting-facility profiles.

The paper closes on a provisioning question: what does a *facility* of
co-located game servers demand from the network?  A real facility is not
N clones of the Olygamer box — servers differ in slot count, popularity,
map rotation and the time zone their players wake up in.
:class:`FleetProfile` captures that heterogeneity as distributions and
derives one concrete :class:`~repro.gameserver.config.ServerProfile` per
server, deterministically from ``(seed, server index)`` alone, so any
execution order (serial, sharded, resumed) sees identical servers.

Address discipline: every server gets a unique facility-side address
(``facility_address_base + index``) and a disjoint client address block
(``client_address_base + (index << client_block_bits)``), so merged
facility traces keep per-server flows separable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.gameserver.config import ServerProfile, olygamer_week
from repro.net.addresses import IPv4Address
from repro.sim.random import RandomStreams, derive_seed, sample_lognormal


@dataclass(frozen=True)
class FleetProfile:
    """Parameters of a multi-server hosting facility.

    ``base_profile`` supplies everything not varied here (tick rate,
    payload models, link-class mix); the per-server draws vary capacity,
    popularity, rotation and diurnal phase around it.
    """

    n_servers: int
    base_profile: ServerProfile = field(default_factory=olygamer_week)
    seed: int = 0

    # -- heterogeneity ------------------------------------------------
    #: Slot counts sampled uniformly per server (public servers cluster
    #: on a few standard capacities).
    slot_choices: Tuple[int, ...] = (12, 16, 22, 32)
    #: Coefficient of variation of the lognormal popularity multiplier
    #: applied to the (slot-scaled) attempt rate.  0 disables it.
    popularity_cv: float = 0.35
    #: Total spread (hours) of per-server diurnal phase offsets, drawn
    #: uniformly in ±spread/2 — players in different time zones.
    timezone_spread_hours: float = 8.0
    #: Map rotation lengths sampled uniformly per server.
    map_duration_choices: Tuple[float, ...] = (1200.0, 1800.0, 2700.0)

    # -- horizon ------------------------------------------------------
    #: Simulation horizon for every server; ``None`` keeps the base
    #: profile's horizon (the full week).
    duration: Optional[float] = None

    # -- addressing ---------------------------------------------------
    facility_address_base: IPv4Address = field(
        default_factory=lambda: IPv4Address("10.64.0.10")
    )
    #: log2 of the per-server client address block size.
    client_block_bits: int = 20

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError(f"n_servers must be >= 1: {self.n_servers!r}")
        if not self.slot_choices or any(s < 1 for s in self.slot_choices):
            raise ValueError("slot_choices must be non-empty positive slot counts")
        if self.popularity_cv < 0:
            raise ValueError(f"popularity_cv must be >= 0: {self.popularity_cv!r}")
        if self.timezone_spread_hours < 0:
            raise ValueError(
                f"timezone_spread_hours must be >= 0: {self.timezone_spread_hours!r}"
            )
        if not self.map_duration_choices or any(
            d <= self.base_profile.map_change_downtime for d in self.map_duration_choices
        ):
            raise ValueError(
                "map_duration_choices must be non-empty and exceed the "
                "base profile's map_change_downtime"
            )
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration!r}")
        if not 8 <= self.client_block_bits <= 24:
            raise ValueError(
                f"client_block_bits must lie in [8, 24]: {self.client_block_bits!r}"
            )
        # IPv4Address arithmetic wraps modulo 2^32; wrapping would alias
        # client blocks across servers, so reject fleets that don't fit.
        top_client = self.base_profile.client_address_base.value + (
            self.n_servers << self.client_block_bits
        )
        if top_client > 0xFFFFFFFF:
            raise ValueError(
                f"{self.n_servers} client blocks of 2^{self.client_block_bits} "
                "addresses overflow the IPv4 space from "
                f"{self.base_profile.client_address_base}"
            )
        if self.facility_address_base.value + self.n_servers > 0xFFFFFFFF:
            raise ValueError("facility server addresses overflow the IPv4 space")

    # ------------------------------------------------------------------
    @property
    def horizon(self) -> float:
        """The effective per-server simulation horizon (seconds)."""
        return float(
            self.base_profile.duration if self.duration is None else self.duration
        )

    def server_profile(self, index: int) -> ServerProfile:
        """The concrete profile of server ``index``.

        Depends only on ``(self.seed, index)`` and the fleet parameters —
        never on how many other servers exist or in what order they are
        built — which is what makes sharded execution reproducible.
        """
        if not 0 <= index < self.n_servers:
            raise IndexError(
                f"server index {index} out of range for fleet of {self.n_servers}"
            )
        base = self.base_profile
        rng = self._heterogeneity(index)
        slots = int(self.slot_choices[int(rng.integers(len(self.slot_choices)))])
        popularity = (
            float(sample_lognormal(rng, 1.0, self.popularity_cv))
            if self.popularity_cv > 0
            else 1.0
        )
        phase_hours = float(rng.uniform(-0.5, 0.5)) * self.timezone_spread_hours
        map_duration = float(
            self.map_duration_choices[int(rng.integers(len(self.map_duration_choices)))]
        )
        return base.scaled(self.horizon, keep_outages=True).replace(
            server_address=self.facility_address_base + index,
            client_address_base=base.client_address_base
            + (index << self.client_block_bits),
            max_players=slots,
            # keep heterogeneous servers comparably busy: attempts scale
            # with capacity, then popularity spreads them out
            attempt_rate=base.attempt_rate * popularity * slots / base.max_players,
            diurnal_phase=2.0 * math.pi * phase_hours / 24.0,
            map_duration=map_duration,
        )

    def _heterogeneity(self, index: int) -> np.random.Generator:
        """Server ``index``'s profile stream; its first draw picks the slots."""
        return RandomStreams(derive_seed(self.seed, f"fleet-profile:{index}")).get(
            "heterogeneity"
        )

    def server_slots(self) -> np.ndarray:
        """Every server's ``max_players``, in server-index order (int64),
        without building the profiles."""
        slots = np.empty(self.n_servers, dtype=np.int64)
        for index in range(self.n_servers):
            rng = self._heterogeneity(index)
            slots[index] = self.slot_choices[int(rng.integers(len(self.slot_choices)))]
        return slots

    def server_profiles(self) -> Tuple[ServerProfile, ...]:
        """All per-server profiles, in server-index order."""
        return tuple(self.server_profile(i) for i in range(self.n_servers))

    def describe(self) -> str:
        """One line per server: address, slots, rates, rotation, phase."""
        lines = []
        for index, profile in enumerate(self.server_profiles()):
            phase_hours = profile.diurnal_phase * 24.0 / (2.0 * math.pi)
            lines.append(
                f"server {index:2d}  {profile.server_address!s:>12}  "
                f"{profile.max_players:2d} slots  "
                f"{profile.attempt_rate:.4f} attempts/s  "
                f"{profile.map_duration / 60:.0f} min maps  "
                f"phase {phase_hours:+.1f} h"
            )
        return "\n".join(lines)


def hosting_facility(
    n_servers: int = 16,
    duration: Optional[float] = None,
    seed: int = 0,
    base_profile: Optional[ServerProfile] = None,
) -> FleetProfile:
    """A default heterogeneous facility around the paper's server."""
    return FleetProfile(
        n_servers=n_servers,
        base_profile=base_profile if base_profile is not None else olygamer_week(),
        duration=duration,
        seed=seed,
    )
