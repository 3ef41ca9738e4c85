"""Unit tests for the game log generator/parser."""

import io

import pytest

from repro.gameserver.gamelog import generate_log, parse_log, write_log
from repro.gameserver.rounds import RoundSchedule


class TestGeneration:
    def test_lines_time_sorted(self, quick_population):
        lines = generate_log(quick_population)
        times = [float(line.split(":")[0][2:]) for line in lines]
        assert times == sorted(times)

    def test_connect_disconnect_pairing(self, quick_population):
        lines = generate_log(quick_population)
        connects = sum(1 for line in lines if " connect " in line)
        disconnects = sum(1 for line in lines if " disconnect " in line)
        assert connects == quick_population.established_count
        assert disconnects == quick_population.established_count

    def test_refused_lines(self, quick_population):
        lines = generate_log(quick_population)
        refused = sum(1 for line in lines if " refused " in line)
        assert refused == (
            quick_population.attempted_count - quick_population.established_count
        )

    def test_map_lines(self, quick_population):
        lines = generate_log(quick_population)
        starts = sum(1 for line in lines if "map_start" in line)
        ends = sum(1 for line in lines if "map_end" in line)
        assert starts == quick_population.maps_played
        assert ends == quick_population.maps_played

    def test_round_lines_present_with_schedule(
        self, quick_population, quick_profile
    ):
        rounds = RoundSchedule(quick_profile, seed=11)
        lines = generate_log(quick_population, rounds=rounds)
        round_ends = sum(1 for line in lines if "round_end" in line)
        assert round_ends == len(rounds)


class TestRoundTrip:
    def test_parse_recovers_events(self, quick_population):
        events = parse_log(generate_log(quick_population))
        connects = [e for e in events if e.event == "connect"]
        assert len(connects) == quick_population.established_count
        assert all(e.client_id is not None for e in connects)

    def test_write_and_reparse(self, quick_population, tmp_path):
        path = str(tmp_path / "server.log")
        count = write_log(quick_population, path)
        with open(path) as handle:
            events = parse_log(handle)
        assert len(events) == count

    def test_write_to_stream(self, quick_population):
        stream = io.StringIO()
        count = write_log(quick_population, stream)
        assert count == len(stream.getvalue().strip().splitlines())

    def test_unparseable_line_raises(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_log(["garbage line"])

    def test_blank_lines_skipped(self):
        assert parse_log(["", "   "]) == []

    def test_map_names_parsed(self, quick_population):
        events = parse_log(generate_log(quick_population))
        starts = [e for e in events if e.event == "map_start"]
        assert all(e.map_name for e in starts)

