"""Player-population behaviour analysis.

The paper carefully scopes its predictability claim: "it is expected
that active user populations will not, in general, exhibit the
predictability of the server studied in this paper and that the global
usage pattern itself may exhibit a high degree of self-similarity
[Henderson & Bhatti]".  This module provides the population-side
analyses that scoping references: session-duration distribution fitting,
the arrival process's burstiness, diurnal structure, and the Hurst
parameter of the player-count series — so the same caveat can be
checked on any simulated or logged population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gameserver.population import PopulationResult
from repro.stats.fitting import FittedDistribution, fit_best
from repro.stats.hurst import hurst_aggregated_variance


@dataclass(frozen=True)
class PopulationAnalysis:
    """Behavioural statistics of one simulated (or logged) population."""

    session_duration_fit: FittedDistribution
    mean_session_s: float
    median_session_s: float
    arrival_burstiness: float
    diurnal_peak_to_trough: float
    players_hurst: float
    occupancy_mean: float
    occupancy_utilisation: float

    @classmethod
    def from_population(
        cls,
        population: PopulationResult,
        arrival_bin_s: float = 600.0,
        players_bin_s: float = 60.0,
    ) -> "PopulationAnalysis":
        """Analyse a session-level result.

        ``arrival_burstiness`` is the index of dispersion of attempt
        counts per ``arrival_bin_s``; 1.0 for a homogeneous Poisson
        process, above it for diurnally modulated or clustered arrivals.
        """
        if not population.sessions:
            raise ValueError("population has no sessions")
        durations = population.sessions.duration
        # zero-duration sessions (outage-truncated joins) stay in the
        # means but cannot enter a positive-support fit
        fit = fit_best(
            durations[durations > 0], families=("lognormal", "exponential")
        )

        attempt_times = np.asarray([a.time for a in population.attempts])
        nbins = max(2, int(population.profile.duration // arrival_bin_s))
        counts, _ = np.histogram(
            attempt_times, bins=nbins, range=(0.0, population.profile.duration)
        )
        counts = counts.astype(float)
        burstiness = float(counts.var() / counts.mean()) if counts.mean() else 0.0

        # diurnal structure: mean attempts by hour-of-day (needs >= 2 days)
        if population.profile.duration >= 2 * 86400.0:
            hours = (attempt_times % 86400.0) // 3600.0
            by_hour = np.asarray(
                [np.sum(hours == h) for h in range(24)], dtype=float
            )
            trough = max(by_hour.min(), 1.0)
            diurnal = float(by_hour.max() / trough)
        else:
            diurnal = 1.0

        times = np.arange(0.0, population.profile.duration, players_bin_s) + (
            players_bin_s / 2.0
        )
        players = population.players_at(times).astype(float)
        if players.std() > 0 and players.size >= 64:
            hurst = hurst_aggregated_variance(players, players_bin_s)
        else:
            hurst = 0.5
        return cls(
            session_duration_fit=fit,
            mean_session_s=float(durations.mean()),
            median_session_s=float(np.median(durations)),
            arrival_burstiness=burstiness,
            diurnal_peak_to_trough=diurnal,
            players_hurst=hurst,
            occupancy_mean=float(players.mean()),
            occupancy_utilisation=float(
                players.mean() / population.profile.max_players
            ),
        )

    # ------------------------------------------------------------------
    def duration_is_heavy_tailed(self) -> bool:
        """Whether lognormal beat exponential for session durations.

        Henderson's game-population measurements found heavy-tailed
        session times; a lognormal winning the KS contest is the
        corresponding check here.
        """
        return self.session_duration_fit.family == "lognormal"

    def population_is_saturated(self, threshold: float = 0.8) -> bool:
        """The paper's busy-server regime: occupancy pinned near capacity.

        When true, aggregate traffic predictability follows (the paper's
        core argument); when false, population self-similarity leaks into
        the traffic.
        """
        return self.occupancy_utilisation >= threshold

    def describe(self) -> str:
        """One-paragraph summary."""
        return (
            f"sessions {self.session_duration_fit.family} "
            f"(mean {self.mean_session_s / 60:.1f} min, "
            f"median {self.median_session_s / 60:.1f} min); "
            f"arrival dispersion {self.arrival_burstiness:.1f}; "
            f"diurnal peak/trough {self.diurnal_peak_to_trough:.1f}; "
            f"player-count H {self.players_hurst:.2f}; "
            f"occupancy {self.occupancy_mean:.1f} "
            f"({100 * self.occupancy_utilisation:.0f}% of slots)"
        )
