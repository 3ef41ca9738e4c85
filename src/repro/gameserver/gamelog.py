"""Server event log — the paper's "associated game log file".

The authors promise to release "the trace and associated game log file";
real Half-Life servers write a timestamped text log of connections,
disconnections, map loads and round ends.  This module generates that
artifact from a simulated week (session-level result + round schedule),
parses it back, and cross-checks it against Table I — exactly the
consistency check a consumer of the released data would run.

Log line format (modelled on HL1 logs)::

    L 0000012.500: map_start "de_dust"
    L 0000013.250: connect client=17 session=42
    L 0000900.100: disconnect client=17 session=42 duration=886.9
    L 0001800.000: map_end "de_dust"
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, List, Optional, TextIO, Union

from repro.gameserver.population import PopulationResult
from repro.gameserver.rounds import RoundSchedule

#: Rotation of classic Counter-Strike map names used for log flavour.
MAP_ROTATION = (
    "de_dust", "de_aztec", "cs_italy", "de_nuke", "cs_office",
    "de_train", "cs_assault", "de_inferno",
)

_LINE_RE = re.compile(
    r'^L (?P<time>\d+\.\d+): (?P<event>\w+)(?P<rest>.*)$'
)
_KV_RE = re.compile(r'(\w+)=([^\s"]+)')
_NAME_RE = re.compile(r'"([^"]+)"')


@dataclass(frozen=True)
class LogEvent:
    """One parsed log line."""

    time: float
    event: str
    map_name: Optional[str] = None
    client_id: Optional[int] = None
    session_id: Optional[int] = None
    duration: Optional[float] = None


def generate_log(
    population: PopulationResult,
    rounds: Optional[RoundSchedule] = None,
) -> List[str]:
    """Render the simulated week as timestamped log lines (time-sorted)."""
    entries: List[tuple] = []
    map_starts = [0.0, *population.map_change_times]
    for index, start in enumerate(map_starts):
        name = MAP_ROTATION[index % len(MAP_ROTATION)]
        entries.append((start, f'map_start "{name}"'))
        end = (
            population.map_change_times[index]
            if index < len(population.map_change_times)
            else population.profile.duration
        )
        entries.append((end, f'map_end "{name}"'))
    for session in population.sessions:
        entries.append(
            (session.start,
             f"connect client={session.client_id} session={session.session_id}")
        )
        entries.append(
            (session.end,
             f"disconnect client={session.client_id} "
             f"session={session.session_id} duration={session.duration:.1f}")
        )
    for attempt in population.attempts:
        if not attempt.accepted:
            entries.append((attempt.time, f"refused client={attempt.client_id}"))
    if rounds is not None:
        for record in rounds.rounds:
            entries.append((record.end, f"round_end duration={record.duration:.1f}"))
    entries.sort(key=lambda pair: pair[0])
    return [f"L {time:011.3f}: {text}" for time, text in entries]


def write_log(
    population: PopulationResult,
    destination: Union[str, TextIO],
    rounds: Optional[RoundSchedule] = None,
) -> int:
    """Write the log to a path or text stream; returns the line count."""
    lines = generate_log(population, rounds=rounds)
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    else:
        destination.write("\n".join(lines) + "\n")
    return len(lines)


def parse_log(lines: Iterable[str]) -> List[LogEvent]:
    """Parse log lines back into :class:`LogEvent` records.

    Unparseable lines raise ``ValueError`` with the offending content —
    a log that does not round-trip is a bug, not data to skip.
    """
    events: List[LogEvent] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        match = _LINE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable log line: {line!r}")
        rest = match.group("rest")
        fields = dict(_KV_RE.findall(rest))
        name_match = _NAME_RE.search(rest)
        events.append(
            LogEvent(
                time=float(match.group("time")),
                event=match.group("event"),
                map_name=name_match.group(1) if name_match else None,
                client_id=int(fields["client"]) if "client" in fields else None,
                session_id=int(fields["session"]) if "session" in fields else None,
                duration=float(fields["duration"]) if "duration" in fields else None,
            )
        )
    return events
