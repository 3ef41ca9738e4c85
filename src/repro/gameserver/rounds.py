"""Round structure within a map.

Counter-Strike maps consist of back-to-back rounds of several minutes
(Section II: "two teams continuously play back-to-back rounds of several
minutes in duration").  Rounds matter to the traffic model because game
intensity — and therefore snapshot payload size — builds over a round and
resets at the round boundary.  The effect is second-order (it adds
realistic short-term variation without moving the means), controlled by
``ServerProfile.round_intensity_amplitude``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.gameserver.config import ServerProfile
from repro.sim.random import RandomStreams


@dataclass(frozen=True)
class RoundRecord:
    """One round: absolute [start, end) within the trace."""

    start: float
    end: float

    @property
    def duration(self) -> float:
        """Round length in seconds."""
        return self.end - self.start


class RoundSchedule:
    """The full round timeline of a simulated horizon.

    Rounds tile each map interval; durations are truncated-normal draws
    and the last round of a map is cut off by the map change, exactly as
    the real game cuts rounds at the map time limit.
    """

    def __init__(self, profile: ServerProfile, seed: int = 0) -> None:
        self.profile = profile
        rng = RandomStreams(seed).get("rounds")
        self.rounds: List[RoundRecord] = []
        map_starts = np.arange(0.0, profile.duration, profile.map_duration)
        for map_start in map_starts:
            map_end = min(map_start + profile.map_duration, profile.duration)
            cursor = map_start + profile.map_change_downtime if map_start > 0 else 0.0
            while cursor < map_end:
                duration = max(
                    profile.round_duration_min,
                    float(rng.normal(profile.round_duration_mean, profile.round_duration_std)),
                )
                end = min(cursor + duration, map_end)
                self.rounds.append(RoundRecord(start=float(cursor), end=float(end)))
                cursor = end
        self._starts = np.asarray([r.start for r in self.rounds])
        self._ends = np.asarray([r.end for r in self.rounds])

    def __len__(self) -> int:
        return len(self.rounds)

    def intensity(self, times: np.ndarray) -> np.ndarray:
        """Intensity multiplier at each time (vectorised).

        Rises linearly from ``1 − a`` at round start to ``1 + a`` at round
        end (a = ``round_intensity_amplitude``): early-round buy time is
        quiet, late-round firefights are busy.  Times outside any round
        (map-change downtime) get multiplier 1.0 — the generators gate
        those intervals to zero traffic separately.
        """
        times = np.asarray(times, dtype=float)
        amplitude = self.profile.round_intensity_amplitude
        result = np.ones(times.shape, dtype=float)
        if not len(self.rounds) or amplitude == 0.0:
            return result
        index = np.searchsorted(self._starts, times, side="right") - 1
        index = np.clip(index, 0, len(self.rounds) - 1)
        starts = self._starts[index]
        ends = self._ends[index]
        inside = (times >= starts) & (times < ends)
        durations = np.maximum(ends - starts, 1e-9)
        phase = (times - starts) / durations
        result[inside] = 1.0 - amplitude + 2.0 * amplitude * phase[inside]
        return result
