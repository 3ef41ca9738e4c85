"""Named experiment scenarios with shared, cached simulation state.

Every table/figure experiment needs some subset of {population, packet
window, fluid series} from the *same* simulated week.  :class:`Scenario`
computes each lazily and caches it, so a process running all
experiments simulates the week's sessions once and reuses them.

The default scaling policy: session-level artifacts use the full-week
horizon (they are cheap and Table I quantities are totals); packet-level
artifacts use bounded windows (documented per experiment in
EXPERIMENTS.md); rate comparisons are made on rates, not totals.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.gameserver.config import ServerProfile, olygamer_week
from repro.gameserver.fluid import CountLevelGenerator, FluidSeries
from repro.gameserver.generator import PacketLevelGenerator
from repro.gameserver.population import PopulationResult, simulate_population
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.trace.trace import Trace

#: Default packet-level analysis window: one busy hour starting at the
#: second hour of the trace (clear of warm-up, spans two map changes).
DEFAULT_PACKET_WINDOW = (3600.0, 7200.0)


class Scenario:
    """Lazily evaluated simulation state for one (profile, seed) pair.

    ``population`` overrides the profile's own arrival process with an
    externally produced session list (e.g. matchmaker-assigned sessions
    from :func:`repro.matchmaking.assigned_population`); packet and
    count generation then run over those sessions unchanged.
    """

    def __init__(
        self,
        profile: ServerProfile,
        seed: int = 0,
        population: Optional[PopulationResult] = None,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self._population: Optional[PopulationResult] = population
        self._packet_generator: Optional[PacketLevelGenerator] = None
        self._fluid_generator: Optional[CountLevelGenerator] = None
        self._traces: Dict[Tuple[float, float], Trace] = {}
        self._per_second: Optional[FluidSeries] = None

    # ------------------------------------------------------------------
    @property
    def population(self) -> PopulationResult:
        """The session-level week (simulated once)."""
        if self._population is None:
            with obs_trace.span("scenario.population", seed=self.seed):
                self._population = simulate_population(
                    self.profile, seed=self.seed
                )
            # passive accounting over the finished result — these bumps
            # happen wherever the Scenario runs (parent *or* pool
            # worker), so sharded runs report the same totals as serial
            # ones once worker deltas are merged back
            metrics = obs_metrics.registry()
            metrics.counter("scenario.populations").inc()
            metrics.counter("scenario.sessions").inc(
                len(self._population.sessions)
            )
        return self._population

    @property
    def packet_generator(self) -> PacketLevelGenerator:
        """Shared packet-level generator over the cached population."""
        if self._packet_generator is None:
            self._packet_generator = PacketLevelGenerator(
                self.profile, population=self.population, seed=self.seed
            )
        return self._packet_generator

    @property
    def fluid_generator(self) -> CountLevelGenerator:
        """Shared count-level generator over the cached population."""
        if self._fluid_generator is None:
            self._fluid_generator = CountLevelGenerator(
                self.profile, population=self.population, seed=self.seed
            )
        return self._fluid_generator

    # ------------------------------------------------------------------
    def packet_window(
        self,
        start: float = DEFAULT_PACKET_WINDOW[0],
        end: float = DEFAULT_PACKET_WINDOW[1],
    ) -> Trace:
        """A packet-level trace for [start, end), cached per window."""
        key = (float(start), float(end))
        if key not in self._traces:
            with obs_trace.span(
                "scenario.packet_window", start=start, end=end
            ):
                self._traces[key] = self.packet_generator.generate(start, end)
            metrics = obs_metrics.registry()
            metrics.counter("scenario.packet_windows").inc()
            metrics.counter("scenario.packets").inc(len(self._traces[key]))
        return self._traces[key]

    def per_second_series(self) -> FluidSeries:
        """The week-long per-second count series, cached."""
        if self._per_second is None:
            with obs_trace.span("scenario.series", seed=self.seed):
                self._per_second = self.fluid_generator.per_second()
            obs_metrics.registry().counter("scenario.series_built").inc()
        return self._per_second

    def per_minute_series(self) -> FluidSeries:
        """The week-long per-minute count series (Figs 1, 2, 4)."""
        return self.per_second_series().rebin(60)

    def clear_packet_windows(self) -> None:
        """Drop cached traces (memory control for long bench runs)."""
        self._traces.clear()


_scenario_cache: Dict[Tuple[str, int], Scenario] = {}


def olygamer_scenario(seed: int = 0) -> Scenario:
    """The paper's week, process-wide cached per seed."""
    key = ("olygamer", seed)
    if key not in _scenario_cache:
        _scenario_cache[key] = Scenario(olygamer_week(), seed=seed)
    return _scenario_cache[key]


def clear_scenario_cache() -> None:
    """Reset the process-wide scenario cache (used by tests)."""
    _scenario_cache.clear()
