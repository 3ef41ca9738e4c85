"""The session table: its contract, its row view, and its cache keys.

:class:`~repro.gameserver.population.SessionTable` carries every session
list from the engines that admit sessions to the shard cache's content
key.  These tests pin the table's validation and equality, the row round
trip, the orders the engines and tasks sort by, the vectorised
population counts against the per-session loops they replaced, and the
keys of the per-server traffic tasks that carry a table.
"""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import shard_results
from matchmaking_reference import session_table_from_rows

from repro.fleet.cache import ShardCache
from repro.fleet.execution import SeriesTask, simulate_series
from repro.fleet.profiles import hosting_facility
from repro.gameserver.fluid import fluid_series_equal
from repro.gameserver.population import (
    PopulationResult,
    SessionRecord,
    SessionTable,
)
from repro.matchmaking import PoolConfig, simulate_matchmaking
NAMES = ("modem", "broadband", "lan")

_COLUMNS = (
    "session_id",
    "client_id",
    "start",
    "end",
    "rate_multiplier",
    "link_class",
    "wants_download",
)


def _table(n: int = 4, **overrides) -> SessionTable:
    """A small valid table; ``overrides`` replace whole columns."""
    columns = {
        "session_id": np.arange(n, dtype=np.int64),
        "client_id": np.arange(n, dtype=np.int64) * 3,
        "start": np.arange(n, dtype=np.float64),
        "end": np.arange(n, dtype=np.float64) + 2.5,
        "rate_multiplier": np.full(n, 1.25),
        "link_class": (np.arange(n) % len(NAMES)).astype(np.uint8),
        "wants_download": np.arange(n) % 2 == 0,
        "link_class_names": NAMES,
    }
    columns.update(overrides)
    return SessionTable(**columns)


def _population(profile, sessions: SessionTable) -> PopulationResult:
    return PopulationResult(
        profile=profile,
        sessions=sessions,
        attempts=[],
        map_change_times=[],
        outages=(),
        unique_attempting=0,
        unique_establishing=0,
    )


# ----------------------------------------------------------------------
# contract
# ----------------------------------------------------------------------
class TestValidation:
    def test_valid_table(self):
        table = _table()
        assert len(table) == 4
        assert table.link_class_names == NAMES

    def test_unequal_column_lengths_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            _table(client_id=np.arange(3, dtype=np.int64))

    @pytest.mark.parametrize(
        "column, wrong",
        [
            ("session_id", np.arange(4, dtype=np.int32)),
            ("client_id", np.arange(4, dtype=np.float64)),
            ("start", np.arange(4, dtype=np.float32)),
            ("rate_multiplier", np.ones(4, dtype=np.int64)),
            ("link_class", np.zeros(4, dtype=np.int64)),
            ("link_class", np.array(["modem"] * 4, dtype=object)),
            ("wants_download", np.zeros(4, dtype=np.uint8)),
            ("end", [3.0, 4.0, 5.0, 6.0]),
        ],
    )
    def test_wrong_dtype_rejected(self, column, wrong):
        with pytest.raises(ValueError, match=column):
            _table(**{column: wrong})

    def test_end_before_start_rejected(self):
        end = np.arange(4, dtype=np.float64) + 2.5
        end[2] = 1.0
        with pytest.raises(ValueError, match="ends before"):
            _table(end=end)

    def test_zero_duration_allowed(self):
        table = _table(end=np.arange(4, dtype=np.float64))
        assert np.all(table.duration == 0.0)

    def test_link_class_code_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="link_class"):
            _table(link_class=np.array([0, 1, 2, 3], dtype=np.uint8))

    def test_names_must_be_a_tuple_of_str(self):
        with pytest.raises(ValueError, match="link_class_names"):
            _table(link_class_names=list(NAMES))


class TestEquality:
    def test_equal_content_is_equal(self):
        assert _table() == _table()
        assert not _table() != _table()

    @pytest.mark.parametrize("column", _COLUMNS)
    def test_one_changed_value_is_unequal(self, column):
        values = getattr(_table(), column).copy()
        values[1] = (
            not values[1] if values.dtype == bool else (values[1] + 1) % 3
        )
        if column == "end":
            values[1] = 10.0
        assert _table(**{column: values}) != _table()

    def test_link_class_names_compared(self):
        renamed = ("modem", "cable", "lan")
        assert _table(link_class_names=renamed) != _table()

    def test_not_equal_to_rows(self):
        assert _table() != tuple(_table())

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(_table())

    def test_tuples_of_tables_compare_elementwise(self):
        assert (_table(), _table(2)) == (_table(), _table(2))
        assert (_table(), _table(2)) != (_table(), _table(3))


class TestConstruction:
    def test_empty(self):
        table = SessionTable.from_tuples([], ())
        assert len(table) == 0
        assert list(table) == []
        assert table == SessionTable.from_tuples([], ())

    def test_take_mask_and_index(self):
        table = _table(6)
        mask = table.start >= 3.0
        assert list(table.take(mask)) == [r for r in table if r.start >= 3.0]
        assert list(table.take(np.array([5, 0]))) == [list(table)[5], list(table)[0]]

    def test_row_view_fields(self):
        row = next(iter(_table()))
        assert isinstance(row, SessionRecord)
        assert row == SessionRecord(0, 0, 0.0, 2.5, 1.25, "modem", True)
        assert row.duration == 2.5
        assert type(row.start) is float and type(row.session_id) is int
        assert type(row.wants_download) is bool


_times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_rows = st.lists(
    st.builds(
        lambda sid, cid, start, length, mult, link, download: SessionRecord(
            sid, cid, start, start + length, mult, link, download
        ),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.integers(min_value=0, max_value=2**40),
        _times,
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        st.sampled_from(NAMES),
        st.booleans(),
    ),
    max_size=40,
)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(rows=_rows)
    def test_rows_table_rows(self, rows):
        table = session_table_from_rows(rows, NAMES)
        assert len(table) == len(rows)
        assert list(table) == rows
        assert session_table_from_rows(list(table), NAMES) == table

    def test_population_round_trip(self, quick_population):
        table = quick_population.sessions
        assert session_table_from_rows(list(table), table.link_class_names) == table


# ----------------------------------------------------------------------
# orders the engines and tasks rely on
# ----------------------------------------------------------------------
_tied_rows = st.lists(
    st.builds(
        lambda sid, start: SessionRecord(sid, 0, start, start + 1.0, 1.0, "lan", False),
        st.integers(min_value=0, max_value=5),
        st.sampled_from([0.0, 0.5, 1.0, 7.25]),
    ),
    max_size=30,
)


class TestSortOrder:
    @settings(max_examples=150, deadline=None)
    @given(rows=_tied_rows)
    def test_stable_argsort_equals_sorted_by_start(self, rows):
        table = session_table_from_rows(rows, NAMES)
        ordered = table.take(np.argsort(table.start, kind="stable"))
        assert list(ordered) == sorted(rows, key=lambda r: r.start)

    @settings(max_examples=150, deadline=None)
    @given(rows=_tied_rows)
    def test_lexsort_equals_sorted_by_start_then_id(self, rows):
        table = session_table_from_rows(rows, NAMES)
        ordered = table.take(np.lexsort((table.session_id, table.start)))
        assert list(ordered) == sorted(rows, key=lambda r: (r.start, r.session_id))


# ----------------------------------------------------------------------
# vectorised population counts against the loops they replaced
# ----------------------------------------------------------------------
def _reference_distinct_players(population, bin_size):
    """The per-session loop ``distinct_players_per_interval`` replaced."""
    nbins = max(1, int(math.ceil(population.profile.duration / bin_size)))
    counts = np.zeros(nbins, dtype=np.int64)
    for session in population.sessions:
        first = max(0, int(session.start // bin_size))
        last = min(nbins - 1, int(session.end // bin_size))
        if last >= first:
            counts[first : last + 1] += 1
    return counts


def _reference_players_at(population, times):
    return np.asarray(
        [sum(1 for s in population.sessions if s.start <= t < s.end) for t in times],
        dtype=np.int64,
    )


_spans = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=700.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    ),
    max_size=40,
)


class TestPopulationCounts:
    @pytest.mark.parametrize("bin_size", [1.0, 7.5, 60.0, 1000.0])
    def test_distinct_players_equals_loop(self, quick_population, bin_size):
        got = quick_population.distinct_players_per_interval(bin_size)
        want = _reference_distinct_players(quick_population, bin_size)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_distinct_players_full_population(self, full_population):
        np.testing.assert_array_equal(
            full_population.distinct_players_per_interval(60.0),
            _reference_distinct_players(full_population, 60.0),
        )

    @settings(max_examples=150, deadline=None)
    @given(spans=_spans, bin_size=st.sampled_from([0.5, 1.0, 13.0, 60.0]))
    def test_distinct_players_equals_loop_past_horizon(
        self, quick_profile, spans, bin_size
    ):
        # sessions may run past the 600 s horizon; the last bin clips them
        rows = [
            SessionRecord(i, i, start, start + length, 1.0, "lan", False)
            for i, (start, length) in enumerate(spans)
        ]
        population = _population(quick_profile, session_table_from_rows(rows, NAMES))
        np.testing.assert_array_equal(
            population.distinct_players_per_interval(bin_size),
            _reference_distinct_players(population, bin_size),
        )

    def test_players_at_equals_loop(self, quick_population):
        times = np.linspace(0.0, 600.0, 97)
        np.testing.assert_array_equal(
            quick_population.players_at(times),
            _reference_players_at(quick_population, times),
        )

    def test_active_sessions_equals_filter(self, quick_population):
        got = quick_population.active_sessions(100.0, 200.0)
        want = [
            s for s in quick_population.sessions if s.start < 200.0 and s.end > 100.0
        ]
        assert isinstance(got, SessionTable)
        assert list(got) == want

    def test_mean_duration_is_left_to_right_sum(self, full_population):
        rows = list(full_population.sessions)
        assert full_population.mean_session_duration() == sum(
            s.duration for s in rows
        ) / len(rows)

    def test_empty_population(self, quick_profile):
        population = _population(quick_profile, SessionTable.from_tuples([], ()))
        assert population.mean_session_duration() == 0.0
        assert population.distinct_players_per_interval(60.0).sum() == 0
        assert population.players_at(np.array([1.0, 2.0])).tolist() == [0, 0]


# ----------------------------------------------------------------------
# cache keys of the tasks that carry a table
# ----------------------------------------------------------------------
_KEY_SCRIPT = """
import sys, tempfile
from repro.fleet.cache import ShardCache
from repro.fleet.profiles import hosting_facility
from repro.matchmaking import PoolConfig, simulate_matchmaking
from repro.fleet.execution import SeriesTask, simulate_series

fleet = hosting_facility(n_servers=3, duration=900.0, seed=3)
config = PoolConfig.for_fleet(
    fleet, demand_ratio=3.0, epoch_length=60.0,
    session_duration_mean=180.0, session_duration_min=5.0,
)
result = simulate_matchmaking(fleet, "least_loaded", config, seed=1)
task = SeriesTask(
    profile=fleet.server_profile(1), sessions=result.sessions[1], seed=7
)
with tempfile.TemporaryDirectory() as root:
    print(ShardCache(root).task_key(simulate_series, task))
"""


@pytest.fixture(scope="module")
def assigned_task():
    fleet = hosting_facility(n_servers=3, duration=900.0, seed=3)
    config = PoolConfig.for_fleet(
        fleet,
        demand_ratio=3.0,
        epoch_length=60.0,
        session_duration_mean=180.0,
        session_duration_min=5.0,
    )
    result = simulate_matchmaking(fleet, "least_loaded", config, seed=1)
    return SeriesTask(
        profile=fleet.server_profile(1), sessions=result.sessions[1], seed=7
    )


class TestTaskKeys:
    def test_key_stable_across_hash_seeds(self, tmp_path, assigned_task):
        src = Path(__file__).resolve().parents[1] / "src"
        keys = []
        for hash_seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, (str(src), env.get("PYTHONPATH")))
            )
            done = subprocess.run(
                [sys.executable, "-c", _KEY_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            keys.append(done.stdout.strip())
        assert len(keys[0]) == 64
        assert keys[0] == keys[1]
        # and the in-process key of the same task agrees
        cache = ShardCache(tmp_path)
        assert cache.task_key(simulate_series, assigned_task) == keys[0]

    @pytest.mark.parametrize("column", _COLUMNS)
    def test_every_column_moves_the_key(self, tmp_path, assigned_task, column):
        cache = ShardCache(tmp_path)
        sessions = assigned_task.sessions
        assert len(sessions) > 2
        values = getattr(sessions, column).copy()
        if values.dtype == bool:
            values[2] = not values[2]  # a wants_download flip
        elif column == "link_class":
            values[2] = (values[2] + 1) % len(sessions.link_class_names)
        elif column == "end":
            values[2] = values[2] + 0.5
        elif column == "start":
            values[2] = sessions.start[2] - 0.25
        else:
            values[2] = values[2] + 1
        changed = dataclasses.replace(sessions, **{column: values})
        assert changed != sessions
        base = cache.task_key(simulate_series, assigned_task)
        moved = cache.task_key(
            simulate_series,
            dataclasses.replace(assigned_task, sessions=changed),
        )
        assert moved is not None and moved != base

    def test_link_class_name_moves_the_key(self, tmp_path, assigned_task):
        cache = ShardCache(tmp_path)
        sessions = assigned_task.sessions
        names = list(sessions.link_class_names)
        names[int(sessions.link_class[0])] += "-renamed"
        renamed = dataclasses.replace(sessions, link_class_names=tuple(names))
        np.testing.assert_array_equal(renamed.link_class, sessions.link_class)
        assert cache.task_key(
            simulate_series,
            dataclasses.replace(assigned_task, sessions=renamed),
        ) != cache.task_key(simulate_series, assigned_task)

    def test_empty_table_keys_and_round_trips(self, tmp_path, assigned_task):
        task = dataclasses.replace(assigned_task, sessions=SessionTable.from_tuples([], ()))
        cache = ShardCache(tmp_path)
        key = cache.task_key(simulate_series, task)
        assert isinstance(key, str) and len(key) == 64
        (cold,) = shard_results(simulate_series, [task], workers=1, cache=cache)
        assert (cache.stats.misses, cache.stats.stores) == (1, 1)
        cache.reset_stats()
        (warm,) = shard_results(simulate_series, [task], workers=1, cache=cache)
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)
        assert fluid_series_equal(cold, warm)
