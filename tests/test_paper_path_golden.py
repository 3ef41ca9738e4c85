"""Golden pins of the paper path's synthesis layers.

The `paper` reproduction consumes three synthesised artifacts of the
shared week: the session-level population, the default packet window
and the count-level series.  Each is pinned here by a sha256 over its
raw column bytes, at a fixed seed, so a rewrite of the population event
loop, the packet generator, the fluid generator or ``Trace`` that
changes a single draw or a single row fails here, naming the layer.

If a change is *intentional*, regenerate the constants from the
fixtures below and say so in the commit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.gameserver.config import olygamer_week
from repro.trace.trace import _COLUMNS
from repro.workloads.scenarios import Scenario

HOUR = 3600.0


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.asarray(array)
        h.update(str(array.dtype).encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def _session_digest(population) -> str:
    sessions = population.sessions
    return _digest(
        np.array([s.session_id for s in sessions], dtype=np.int64),
        np.array([s.client_id for s in sessions], dtype=np.int64),
        np.array([s.start for s in sessions], dtype=np.float64),
        np.array([s.end for s in sessions], dtype=np.float64),
        np.array([s.rate_multiplier for s in sessions], dtype=np.float64),
        np.array([s.link_class for s in sessions], dtype=str),
        np.array([s.wants_download for s in sessions], dtype=bool),
    )


def _attempt_digest(population) -> str:
    attempts = population.attempts
    return _digest(
        np.array([a.time for a in attempts], dtype=np.float64),
        np.array([a.client_id for a in attempts], dtype=np.int64),
        np.array([a.accepted for a in attempts], dtype=bool),
    )


def _series_digest(series) -> str:
    return _digest(
        series.in_counts, series.out_counts, series.in_bytes, series.out_bytes
    )


#: The 2-hour paper profile at seed 5 (the shared ``full_population``).
GOLDEN_FULL_POPULATION = {
    "sessions": "9a6a6151b1125323",
    "attempts": "ba7ac4a4e485f2f9",
}

#: The paper's week at seed 0 — what every `paper` reproduction runs on.
GOLDEN_WEEK = {
    "sessions": "41e72d4286426e41",
    "attempts": "d1d0ebea6ae91e36",
    "packet_window": {
        "timestamps": "4e2f6800191896a6",
        "directions": "cfcf39d4d38f53d7",
        "src_addrs": "8f4fde3017b798f1",
        "dst_addrs": "fd85b7cb100b83b4",
        "src_ports": "b563398b886eac01",
        "dst_ports": "8a2498a5ea1315f0",
        "payload_sizes": "7ab38931ee7b6c1e",
        "protocols": "a167459bab5d5516",
    },
    "per_second_series": "42690cc5f677c37d",
    # in_counts and out_counts only: the window has no byte columns
    "high_resolution_window": "b3f73b69d8346f3d",
}

#: The week's per-second series at a second seed.
GOLDEN_WEEK_SEED7_PER_SECOND_SERIES = "1f2b59a6920d05aa"


@pytest.fixture(scope="module")
def week():
    """The seed-0 week, held only for this module (not the process cache)."""
    return Scenario(olygamer_week(), seed=0)


def test_full_population_sessions_and_attempts(full_population):
    assert _session_digest(full_population) == GOLDEN_FULL_POPULATION["sessions"]
    assert _attempt_digest(full_population) == GOLDEN_FULL_POPULATION["attempts"]


def test_week_population_sessions_and_attempts(week):
    assert _session_digest(week.population) == GOLDEN_WEEK["sessions"]
    assert _attempt_digest(week.population) == GOLDEN_WEEK["attempts"]


@pytest.mark.parametrize("column", _COLUMNS)
def test_week_default_packet_window_column(week, column):
    trace = week.packet_window()
    assert _digest(getattr(trace, column)) == GOLDEN_WEEK["packet_window"][column]


def test_week_per_second_series(week):
    assert _series_digest(week.per_second_series()) == GOLDEN_WEEK["per_second_series"]


def test_week_seed7_per_second_series():
    series = Scenario(olygamer_week(), seed=7).per_second_series()
    assert _series_digest(series) == GOLDEN_WEEK_SEED7_PER_SECOND_SERIES


def test_week_high_resolution_window(week):
    window = week.fluid_generator.high_resolution_window(0.0, 6 * HOUR, 0.01)
    assert (
        _digest(window.in_counts, window.out_counts)
        == GOLDEN_WEEK["high_resolution_window"]
    )
