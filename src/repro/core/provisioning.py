"""Provisioning models — the paper's §III-B and §IV-B "good news".

Two quantitative claims become tools here:

1. **Last-mile saturation**: per-player bandwidth is pinned near the
   56 kbps modem ceiling (883 kbps / 22 slots ≈ 40 kbps), so a server's
   demand is ``slots × per_player`` — :class:`PerPlayerModel`.
2. **Linearity**: "traffic from an aggregation of all on-line
   Counter-Strike players is effectively linear to the number of active
   players" — :func:`linearity_experiment` sweeps slot counts through
   the full simulator and fits the line.

:class:`CapacityPlan` turns the model around into the §IV warning: given
a router's pps budget, how many servers/players can sit behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.gameserver.config import ServerProfile
from repro.gameserver.fluid import CountLevelGenerator
from repro.gameserver.population import simulate_population
from repro.net.headers import OverheadModel, WIRE_OVERHEAD_UDP_V4
from repro.stats.regression import LineFit, fit_line

MODEM_RATE_BPS = 56_000.0


@dataclass(frozen=True)
class PerPlayerModel:
    """Constant per-player resource demand.

    ``bandwidth_bps`` is bidirectional wire bandwidth; ``pps`` is packets
    per second, the quantity that kills lookup-bound routers.
    """

    bandwidth_bps: float
    pps: float

    @classmethod
    def from_profile(
        cls, profile: ServerProfile, overhead: Optional[OverheadModel] = None
    ) -> "PerPlayerModel":
        """Analytic per-player demand from first principles (no simulation)."""
        model = overhead if overhead is not None else OverheadModel(WIRE_OVERHEAD_UDP_V4)
        pps_in = profile.nominal_client_pps_in
        pps_out = profile.nominal_client_pps_out
        return cls(
            bandwidth_bps=profile.nominal_client_bandwidth_bps(model.per_packet),
            pps=pps_in + pps_out,
        )


@dataclass(frozen=True)
class LinearityResult:
    """Outcome of the player-count sweep."""

    player_counts: np.ndarray
    mean_pps: np.ndarray
    mean_kbps: np.ndarray
    pps_fit: LineFit
    kbps_fit: LineFit

    @property
    def kbps_per_player(self) -> float:
        """Fitted slope: kilobits/second per player (paper: ~40)."""
        return self.kbps_fit.slope

    @property
    def pps_per_player(self) -> float:
        """Fitted slope: packets/second per player."""
        return self.pps_fit.slope


def linearity_experiment(
    base_profile: ServerProfile,
    player_counts: Sequence[int] = (4, 8, 12, 16, 20, 24, 28, 32),
    duration: float = 3600.0,
    seed: int = 0,
    overhead: Optional[OverheadModel] = None,
) -> LinearityResult:
    """Sweep server slot counts and fit load vs players.

    Each sweep point runs the session + count-level pipeline with the
    attempt rate scaled so the server stays near-full, isolating the
    players→load relation the paper asserts is linear.
    """
    model = overhead if overhead is not None else OverheadModel(WIRE_OVERHEAD_UDP_V4)
    counts: List[float] = []
    pps_means: List[float] = []
    kbps_means: List[float] = []
    for slots in player_counts:
        if slots < 1:
            raise ValueError(f"player counts must be >= 1, got {slots!r}")
        profile = base_profile.replace(
            max_players=int(slots),
            duration=float(duration),
            outages=(),
            attempt_rate=base_profile.attempt_rate * slots / base_profile.max_players * 1.5,
        )
        population = simulate_population(profile, seed=seed + slots)
        fluid = CountLevelGenerator(profile, population=population, seed=seed + slots)
        series = fluid.per_second()
        players = population.players_at(np.arange(duration) + 0.5)
        mean_players = float(players.mean())
        counts.append(mean_players)
        pps_means.append(float(series.total_counts.mean()))
        kbps_means.append(float(series.bandwidth_bps(model.per_packet).mean()) / 1000.0)
    player_array = np.asarray(counts)
    pps_array = np.asarray(pps_means)
    kbps_array = np.asarray(kbps_means)
    return LinearityResult(
        player_counts=player_array,
        mean_pps=pps_array,
        mean_kbps=kbps_array,
        pps_fit=fit_line(player_array, pps_array),
        kbps_fit=fit_line(player_array, kbps_array),
    )


@dataclass(frozen=True)
class CapacityPlan:
    """How much game load a lookup-bound device can host (§IV warning)."""

    device_pps_capacity: float
    per_player: PerPlayerModel
    #: Engineering headroom: bursts hit 5x the mean at 10 ms scales, so
    #: sustained utilisation must stay well below capacity.
    utilisation_target: float = 0.6

    def max_players(self) -> int:
        """Players supportable within the utilisation target."""
        if self.per_player.pps <= 0:
            raise ValueError("per-player pps must be positive")
        return int(
            self.device_pps_capacity * self.utilisation_target / self.per_player.pps
        )

    def max_servers(self, slots_per_server: int = 22) -> int:
        """Full servers supportable behind the device."""
        if slots_per_server < 1:
            raise ValueError(f"slots_per_server must be >= 1: {slots_per_server!r}")
        return self.max_players() // slots_per_server

    def supports_server(self, slots: int = 22) -> bool:
        """The paper's NAT verdict: can one full server sit behind this device?

        For the SMC-class device (1000–1500 pps) and a 22-slot server
        (~800 pps), the answer is no — hosting "is simply not feasible".
        """
        return self.max_players() >= slots
