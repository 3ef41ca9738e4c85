"""Golden pins of packet windows the paper-window pin does not reach.

``tests/test_paper_path_golden.py`` pins one window: an hour of the
paper's own server, downloads on, no map change inside.  The packet
generator has paths that window never takes, and each is pinned here by
a sha256 over every column of the generated trace, at a fixed seed:

* a matchmaker-assigned 2-second window with downloads off — the shape
  of every per-server window of the ``provision`` benchmark workload;
* a window that crosses a map-change gap, so the gap mask drops packets
  of sessions that span it;
* a fleet server's window with downloads on, in which scalar rows
  (handshakes, download chunks and acks) share timestamps, so the
  stable sort's tie order is part of the pin.

If a change is *intentional*, regenerate the constants from the
fixtures below and say so in the commit.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import matchmaking
from repro.fleet.execution import WindowTask, fleet_server_seed, simulate_window
from repro.fleet.profiles import hosting_facility
from repro.fleet.scenario import FleetScenario
from repro.gameserver.generator import PacketLevelGenerator
from repro.trace.packet import Direction
from repro.trace.trace import _COLUMNS


def _trace_digest(trace) -> str:
    h = hashlib.sha256()
    for name in _COLUMNS:
        column = getattr(trace, name)
        h.update(str(column.dtype).encode())
        h.update(column.tobytes())
    return h.hexdigest()[:16]


#: (packets, digest) of the assigned 2-second window of each server.
GOLDEN_ASSIGNED = {
    0: (2527, "91ae52c3abaaf256"),
    1: (926, "218c9f8df043c621"),
    2: (928, "1d758fb85fdf99ca"),
    3: (1238, "862d692122182bcd"),
}

#: (packets, digest) of the full profile's window across its first map change.
GOLDEN_MAP_CHANGE = (34340, "689a749126234d07")

#: (packets, timestamps a download chunk shares with another row, digest)
#: of fleet server 2's first 10 minutes.
GOLDEN_FLEET_DOWNLOADS = (42140, 2, "35e121cf93ec1237")


@pytest.fixture(scope="module")
def assigned_tasks():
    """Four servers' matchmaker-assigned (3000, 3002) windows, downloads off."""
    fleet = hosting_facility(n_servers=4, duration=3600.0, seed=0)
    config = matchmaking.PoolConfig.for_fleet(
        fleet,
        demand_ratio=8.0,
        epoch_length=60.0,
        session_duration_mean=900.0,
        session_duration_min=5.0,
        base_profile=dataclasses.replace(
            fleet.base_profile, download_probability=0.0
        ),
    )
    result = matchmaking.simulate_matchmaking(
        fleet, "latency_aware", config, seed=0, engine="columnar"
    )
    return [
        WindowTask(
            profile=fleet.server_profile(index),
            seed=fleet_server_seed(fleet.seed, index),
            start=3000.0,
            end=3002.0,
            sessions=result.sessions[index],
        )
        for index in range(fleet.n_servers)
    ]


@pytest.mark.parametrize("index", sorted(GOLDEN_ASSIGNED))
def test_assigned_two_second_window(assigned_tasks, index):
    trace = simulate_window(assigned_tasks[index])
    assert (len(trace), _trace_digest(trace)) == GOLDEN_ASSIGNED[index]


def test_window_across_a_map_change(full_profile, full_population):
    change = full_population.map_change_times[0]
    downtime = full_profile.map_change_downtime
    generator = PacketLevelGenerator(
        full_profile, population=full_population, seed=5
    )
    trace = generator.generate(change - 20.0, change + downtime + 20.0)
    # the gap is masked: inside it are only the last tick's snapshots,
    # pushed past its start by the serialisation offset and jitter
    gap = (trace.timestamps >= change) & (trace.timestamps < change + downtime)
    assert np.all(trace.directions[gap] == Direction.OUT)
    assert np.all(trace.timestamps[gap] < change + 0.01)
    assert (len(trace), _trace_digest(trace)) == GOLDEN_MAP_CHANGE


def test_fleet_window_with_download_ties():
    fleet = hosting_facility(n_servers=4, duration=7200.0, seed=0)
    scenario = FleetScenario(fleet).server_scenario(2)
    trace = scenario.packet_window(0.0, 600.0)
    # downloads are on, and download chunks share timestamps with other rows
    chunk = trace.payload_sizes == scenario.profile.download_chunk_payload
    times, counts = np.unique(trace.timestamps, return_counts=True)
    ties = int(np.isin(times[counts > 1], trace.timestamps[chunk]).sum())
    assert ties > 0
    assert (len(trace), ties, _trace_digest(trace)) == GOLDEN_FLEET_DOWNLOADS
