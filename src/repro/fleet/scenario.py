"""Facility-level scenario: lazy, cached, shard-aware simulation state.

:class:`FleetScenario` is to a :class:`~repro.fleet.profiles.FleetProfile`
what :class:`~repro.workloads.scenarios.Scenario` is to one
:class:`~repro.gameserver.config.ServerProfile`: the single object an
experiment holds while it asks for facility aggregates.  Per-server
state is derived deterministically (seed from the fleet seed and server
index), computed serially in-process or sharded across worker processes
— the answers are bit-identical either way — and aggregated streamingly,
so only the facility-level result is ever fully materialised.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.fleet.aggregate import FluidAccumulator, TraceAccumulator
from repro.fleet.cache import ShardCache
from repro.fleet.execution import (
    SeriesTask,
    WindowTask,
    fleet_server_seed,
    resolve_workers,
    shard_map_fold,
    simulate_series,
    simulate_window,
)
from repro.fleet.profiles import FleetProfile
from repro.gameserver.config import ServerProfile
from repro.gameserver.fluid import FluidSeries
from repro.gameserver.population import SessionTable
from repro.trace.trace import Trace
from repro.workloads.scenarios import Scenario


class FleetScenario:
    """Lazily evaluated multi-server facility for one fleet profile.

    ``workers`` arguments follow one rule everywhere: ``None`` means one
    worker per CPU, ``1`` forces the serial in-process path, ``>= 2``
    shards server simulations across a process pool.  Results never
    depend on the choice.

    ``cache=None`` means no disk cache; a
    :class:`~repro.fleet.cache.ShardCache` replays per-server series and
    packet windows from disk.  Cached results are bit-identical to
    recomputed ones, so aggregates never depend on cache warmth either.

    ``assignments`` switches the facility to *endogenous* populations:
    instead of each server running its profile's own arrival process,
    per-server session tables (matchmaker output — see
    :meth:`from_matchmaking`) drive the count- and packet-level
    generators.  Everything else — sharding, caching, determinism — is
    unchanged.
    """

    def __init__(
        self,
        fleet: FleetProfile,
        cache: Optional[ShardCache] = None,
        assignments: Optional[Tuple[SessionTable, ...]] = None,
    ) -> None:
        if assignments is not None and len(assignments) != fleet.n_servers:
            raise ValueError(
                f"{len(assignments)} assignment lists for a fleet of "
                f"{fleet.n_servers} servers"
            )
        self.fleet = fleet
        self.cache = cache
        self.assignments = assignments
        self._profiles: Optional[Tuple[ServerProfile, ...]] = None
        self._scenarios: Dict[int, Scenario] = {}
        self._aggregate_series: Optional[FluidSeries] = None
        self._aggregate_windows: Dict[Tuple[float, float], Trace] = {}

    @classmethod
    def from_matchmaking(
        cls, result, cache: Optional[ShardCache] = None
    ) -> "FleetScenario":
        """A facility driven by a closed-loop matchmaking run.

        ``result`` is a :class:`repro.matchmaking.MatchmakingResult`;
        its per-server assigned sessions replace the exogenous per-server
        arrival processes, so the facility aggregates reflect the
        placement policy's decisions.  Per-server traffic seeds stay
        ``fleet_server_seed(fleet.seed, index)`` — common random numbers
        across policies, so policy comparisons differ only in placement.
        """
        return cls(result.fleet, cache=cache, assignments=result.sessions)

    # ------------------------------------------------------------------
    # per-server access
    # ------------------------------------------------------------------
    @property
    def n_servers(self) -> int:
        """Number of servers in the facility."""
        return self.fleet.n_servers

    @property
    def server_profiles(self) -> Tuple[ServerProfile, ...]:
        """Concrete per-server profiles (computed once)."""
        if self._profiles is None:
            self._profiles = self.fleet.server_profiles()
        return self._profiles

    def server_seed(self, index: int) -> int:
        """Master seed of server ``index``."""
        return fleet_server_seed(self.fleet.seed, index)

    def server_scenario(self, index: int) -> Scenario:
        """The (cached, in-process) single-server scenario for ``index``."""
        if index not in self._scenarios:
            self._scenarios[index] = Scenario(
                self.server_profiles[index],
                seed=self.server_seed(index),
                sessions=self.server_sessions(index),
            )
        return self._scenarios[index]

    def server_sessions(self, index: int) -> Optional[SessionTable]:
        """Sessions assigned to server ``index``; ``None``: its own arrivals."""
        return None if self.assignments is None else self.assignments[index]

    def iter_server_series(self) -> Iterator[FluidSeries]:
        """Per-server per-second series, one at a time, in index order.

        The serial streaming path for analyses that fold over servers
        (burstiness, marginal provisioning cost) — per-server series are
        cached on their scenarios, so a later aggregate reuses them.
        """
        for index in range(self.n_servers):
            yield self.server_scenario(index).per_second_series()

    # ------------------------------------------------------------------
    # facility aggregates
    # ------------------------------------------------------------------
    def series_tasks(self) -> Tuple[SeriesTask, ...]:
        """One :func:`simulate_series` task per server, index order."""
        return tuple(
            SeriesTask(
                profile=profile,
                seed=self.server_seed(index),
                sessions=self.server_sessions(index),
            )
            for index, profile in enumerate(self.server_profiles)
        )

    def window_tasks(self, start: float, end: float) -> Tuple[WindowTask, ...]:
        """One :func:`simulate_window` task per server, index order.

        The facility network's rack ingress
        (:func:`repro.facilitynet.pipeline.rack_ingress_traces`) folds
        the same tasks, so its racks merge exactly these windows.
        """
        return tuple(
            WindowTask(
                profile=profile,
                seed=self.server_seed(index),
                start=float(start),
                end=float(end),
                sessions=self.server_sessions(index),
            )
            for index, profile in enumerate(self.server_profiles)
        )

    def aggregate_per_second(self, workers: Optional[int] = None) -> FluidSeries:
        """Facility-wide per-second counts/bytes (sum over servers).

        Cached after the first call; the cache is worker-count-safe
        because serial and sharded paths produce identical series.
        """
        if self._aggregate_series is None:
            accumulator = FluidAccumulator()
            if self.cache is None and resolve_workers(workers, self.n_servers) <= 1:
                # serial, uncached: go through the cached per-server
                # scenarios so iter_server_series() and the aggregate
                # share one week
                for series in self.iter_server_series():
                    accumulator.add(series)
            else:
                accumulator = shard_map_fold(
                    simulate_series,
                    self.series_tasks(),
                    lambda acc, series: acc.add(series),
                    accumulator,
                    workers=workers,
                    cache=self.cache,
                )
            self._aggregate_series = accumulator.result()
        return self._aggregate_series

    def aggregate_per_minute(self, workers: Optional[int] = None) -> FluidSeries:
        """Facility-wide per-minute series (the Fig 1/2 resolution)."""
        return self.aggregate_per_second(workers=workers).rebin(60)

    def aggregate_packet_window(
        self,
        start: float,
        end: float,
        workers: Optional[int] = None,
    ) -> Trace:
        """Merged facility packet trace for ``[start, end)``.

        Per-server windows are generated (in parallel when sharded) and
        k-way merged in server-index order with bounded fan-in; at most
        :data:`~repro.fleet.aggregate.FANIN` per-server traces are alive
        at once.  Cached per window.
        """
        key = (float(start), float(end))
        if key not in self._aggregate_windows:
            accumulator = TraceAccumulator()
            if self.cache is None and resolve_workers(workers, self.n_servers) <= 1:
                for index in range(self.n_servers):
                    # straight to the generator: reuse the cached
                    # population but don't retain per-server traces
                    accumulator.add(
                        self.server_scenario(index).packet_generator.generate(*key)
                    )
            else:
                accumulator = shard_map_fold(
                    simulate_window,
                    self.window_tasks(*key),
                    lambda acc, trace: acc.add(trace),
                    accumulator,
                    workers=workers,
                    cache=self.cache,
                )
            self._aggregate_windows[key] = accumulator.result()
        return self._aggregate_windows[key]

    def clear_caches(self) -> None:
        """Drop every cached per-server and aggregate artifact."""
        self._scenarios.clear()
        self._aggregate_series = None
        self._aggregate_windows.clear()
