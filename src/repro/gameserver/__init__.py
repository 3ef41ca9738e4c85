"""Counter-Strike server traffic model.

Three fidelity levels over one calibrated :class:`ServerProfile` and one
shared population realisation:

* **session level** — :func:`simulate_population` (Table I, Figs 3, 11);
* **count level** — :class:`CountLevelGenerator` (week-scale series,
  Figs 1, 2, 4, 9, 10 and long-window variance-time analysis);
* **packet level** — :class:`PacketLevelGenerator` (size distributions,
  10 ms burst figures, the NAT experiment).
"""

from repro.gameserver.admission import AdmissionError, ClientDirectory, SlotTable
from repro.gameserver.client import ClientState, GameClient
from repro.gameserver.gamelog import (
    LogEvent,
    LogSummary,
    crosscheck_population,
    generate_log,
    parse_log,
    write_log,
)
from repro.gameserver.network import ClientPath, DEFAULT_PATHS, PathProfile, path_for_class
from repro.gameserver.server import GameServer, run_closed_loop
from repro.gameserver.config import (
    ClientLinkClass,
    GAME_CLIENT_PORT,
    GAME_SERVER_PORT,
    OutageSpec,
    ServerProfile,
    WEEK_SECONDS,
    olygamer_week,
    quick_test_profile,
)
from repro.gameserver.downloads import DownloadScheduler, DownloadTransfer, TokenBucket
from repro.gameserver.fluid import CountLevelGenerator, FluidSeries
from repro.gameserver.generator import PacketLevelGenerator, generate_trace
from repro.gameserver.population import (
    AttemptRecord,
    PopulationResult,
    PopulationSimulator,
    SessionRecord,
    SessionTable,
    simulate_population,
)
from repro.gameserver.protocol import MessageType, PayloadModel, ProtocolModel
from repro.gameserver.rounds import RoundRecord, RoundSchedule

__all__ = [
    "AdmissionError",
    "AttemptRecord",
    "ClientDirectory",
    "ClientLinkClass",
    "ClientPath",
    "ClientState",
    "DEFAULT_PATHS",
    "GameClient",
    "GameServer",
    "LogEvent",
    "LogSummary",
    "PathProfile",
    "crosscheck_population",
    "generate_log",
    "parse_log",
    "path_for_class",
    "run_closed_loop",
    "write_log",
    "CountLevelGenerator",
    "DownloadScheduler",
    "DownloadTransfer",
    "FluidSeries",
    "GAME_CLIENT_PORT",
    "GAME_SERVER_PORT",
    "MessageType",
    "OutageSpec",
    "PacketLevelGenerator",
    "PayloadModel",
    "PopulationResult",
    "PopulationSimulator",
    "ProtocolModel",
    "RoundRecord",
    "RoundSchedule",
    "ServerProfile",
    "SessionRecord",
    "SessionTable",
    "SlotTable",
    "TokenBucket",
    "WEEK_SECONDS",
    "generate_trace",
    "olygamer_week",
    "quick_test_profile",
    "simulate_population",
]
