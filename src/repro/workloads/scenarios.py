"""Named experiment scenarios with shared, cached simulation state.

Every table/figure experiment needs some subset of {population, packet
window, fluid series} from the *same* simulated week.  :class:`Scenario`
computes each lazily and caches it, so a process running all
experiments simulates the week's sessions once and reuses them.  It is
also the one place that picks a server's population: its own arrival
process, or a session table the matchmaker assigned to it — every fleet
worker, serial or sharded, builds the same :class:`Scenario`.

The default scaling policy: session-level artifacts use the full-week
horizon (they are cheap and Table I quantities are totals); packet-level
artifacts use bounded windows (documented per experiment in
EXPERIMENTS.md); rate comparisons are made on rates, not totals.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.packetsize import PacketSizeAnalysis
from repro.gameserver.config import ServerProfile, olygamer_week
from repro.gameserver.fluid import CountLevelGenerator, FluidSeries
from repro.gameserver.generator import PacketLevelGenerator
from repro.gameserver.population import (
    PopulationResult,
    SessionTable,
    simulate_population,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.router.nat import NatDevice, NatExperimentResult
from repro.trace.trace import Trace

#: Default packet-level analysis window: one busy hour starting at the
#: second hour of the trace (clear of warm-up, spans two map changes).
DEFAULT_PACKET_WINDOW = (3600.0, 7200.0)


class Scenario:
    """Lazily evaluated simulation state for one (profile, seed) pair.

    The one place that decides where a server's sessions come from: its
    profile's own arrival process, or — when ``sessions`` is given — a
    session table assigned to it from outside (the facility matchmaker's
    placements, see :meth:`PopulationResult.from_sessions`).  Packet and
    count generation then run over either population unchanged.
    """

    def __init__(
        self,
        profile: ServerProfile,
        seed: int = 0,
        sessions: Optional[SessionTable] = None,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.sessions = sessions
        self._population: Optional[PopulationResult] = None
        self._packet_generator: Optional[PacketLevelGenerator] = None
        self._fluid_generator: Optional[CountLevelGenerator] = None
        self._traces: Dict[Tuple[float, float], Trace] = {}
        self._per_second: Optional[FluidSeries] = None

    # ------------------------------------------------------------------
    @property
    def population(self) -> PopulationResult:
        """The session-level week (simulated or assembled once)."""
        if self._population is not None:
            return self._population
        if self.sessions is not None:
            # assigned sessions: nothing is simulated, so no span and no
            # scenario.* accounting
            self._population = PopulationResult.from_sessions(
                self.profile, self.sessions
            )
            return self._population
        with obs_trace.span("scenario.population", seed=self.seed):
            self._population = simulate_population(self.profile, seed=self.seed)
        # passive accounting over the finished result — these bumps
        # happen wherever the Scenario runs (parent *or* pool worker), so
        # sharded runs report the same totals as serial ones once worker
        # deltas are merged back
        metrics = obs_metrics.registry()
        metrics.counter("scenario.populations").inc()
        metrics.counter("scenario.sessions").inc(len(self._population.sessions))
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


_scenario_cache: Dict[Tuple[str, int], Scenario] = {}
_nat_replay_cache: Dict[Tuple[int, float, float], NatExperimentResult] = {}
_packet_size_cache: Dict[Tuple[int, float, float], PacketSizeAnalysis] = {}


def olygamer_scenario(seed: int = 0) -> Scenario:
    """The paper's week, process-wide cached per seed."""
    key = ("olygamer", seed)
    if key not in _scenario_cache:
        _scenario_cache[key] = Scenario(olygamer_week(), seed=seed)
    return _scenario_cache[key]


def olygamer_nat_replay(seed: int, start: float, end: float) -> NatExperimentResult:
    """The paper week's [start, end) window through the default NAT box.

    ``NatDevice(seed=seed + 100).run(olygamer_scenario(seed).packet_window(start, end))``,
    replayed once per process and shared by Table IV and Figs 14-15.  The
    result's arrays are read-only, so no caller can change what the next
    one reads.
    """
    key = (seed, float(start), float(end))
    if key not in _nat_replay_cache:
        result = NatDevice(seed=seed + 100).run(
            olygamer_scenario(seed).packet_window(start, end)
        )
        forwarding = result.forwarding
        for column in (
            forwarding.fates,
            forwarding.departures,
            forwarding.directions,
            forwarding.timestamps,
        ):
            column.flags.writeable = False
        _nat_replay_cache[key] = result
    return _nat_replay_cache[key]


def olygamer_packet_sizes(
    seed: int,
    start: float = DEFAULT_PACKET_WINDOW[0],
    end: float = DEFAULT_PACKET_WINDOW[1],
) -> PacketSizeAnalysis:
    """The paper week's [start, end) payload-size distributions.

    ``PacketSizeAnalysis.from_trace(olygamer_scenario(seed).packet_window(start, end))``,
    analysed once per process and shared by Figs 12 and 13.  The
    analysis's arrays are read-only, so no caller can change what the
    next one reads.
    """
    key = (seed, float(start), float(end))
    if key not in _packet_size_cache:
        analysis = PacketSizeAnalysis.from_trace(
            olygamer_scenario(seed).packet_window(start, end)
        )
        for cdf in (analysis.total_cdf, analysis.inbound_cdf, analysis.outbound_cdf):
            cdf.sorted_samples.flags.writeable = False
        for pdf in (analysis.total_pdf, analysis.inbound_pdf, analysis.outbound_pdf):
            pdf.bin_edges.flags.writeable = False
            pdf.counts.flags.writeable = False
        _packet_size_cache[key] = analysis
    return _packet_size_cache[key]


def clear_scenario_cache() -> None:
    """Reset the process-wide scenario, NAT replay and packet-size caches (used by tests)."""
    _scenario_cache.clear()
    _nat_replay_cache.clear()
    _packet_size_cache.clear()
