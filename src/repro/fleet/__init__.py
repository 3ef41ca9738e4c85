"""Multi-server hosting-facility simulation.

The paper studies one busy Counter-Strike server; provisioning a hosting
facility means simulating many heterogeneous ones and aggregating their
traffic.  This package provides the three layers:

* :mod:`repro.fleet.profiles` — :class:`FleetProfile`: N heterogeneous
  server profiles (slots, popularity, map rotation, time-zone phase)
  derived deterministically from one seed;
* :mod:`repro.fleet.execution` — sharded per-server simulation across
  ``concurrent.futures`` workers with index-ordered folding, so results
  are bit-identical for any worker count (including serial); its two
  tasks (:class:`SeriesTask`, :class:`WindowTask`) serve servers that
  run their own arrival process and servers fed matchmaker-assigned
  sessions alike;
* :mod:`repro.fleet.aggregate` — streaming k-way merge of per-server
  fluid series and packet windows into facility-level
  :class:`~repro.gameserver.fluid.FluidSeries` /
  :class:`~repro.trace.trace.Trace` without materialising all
  per-server artifacts at once;
* :mod:`repro.fleet.cache` — :class:`ShardCache`: a content-addressed
  disk cache for sharded per-server results, fingerprinted over task
  dataclass fields and the :data:`repro.kernels.KERNEL_VERSION` tag, so
  re-runs and sweeps replay windows from disk bit-identically
  (``repro-experiments --cache-dir`` passes one to the experiments);

tied together by :class:`repro.fleet.scenario.FleetScenario`, the object
experiments hold.  Facility-level analyses (bandwidth/pps envelopes,
multiplexing gain, marginal provisioning cost) live in
:mod:`repro.core.facility`.
"""

from repro.fleet.aggregate import (
    FluidAccumulator,
    TraceAccumulator,
    kway_merge_traces,
    merge_fluid_series,
    sum_fluid_series,
)
from repro.fleet.cache import CacheStats, ShardCache
from repro.fleet.execution import (
    SeriesTask,
    WindowTask,
    available_cpus,
    fleet_server_seed,
    resolve_workers,
    shard_map,
    shard_map_fold,
    simulate_series,
    simulate_window,
)
from repro.fleet.profiles import FleetProfile, hosting_facility
from repro.fleet.scenario import FleetScenario

__all__ = [
    "CacheStats",
    "FleetProfile",
    "FleetScenario",
    "FluidAccumulator",
    "SeriesTask",
    "ShardCache",
    "TraceAccumulator",
    "WindowTask",
    "available_cpus",
    "fleet_server_seed",
    "hosting_facility",
    "kway_merge_traces",
    "merge_fluid_series",
    "resolve_workers",
    "shard_map",
    "shard_map_fold",
    "simulate_series",
    "simulate_window",
    "sum_fluid_series",
]
