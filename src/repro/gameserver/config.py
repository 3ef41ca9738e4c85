"""Calibrated server/workload parameters shared by all fidelity levels.

:class:`ServerProfile` is the single source of truth for every number the
traffic model needs.  The default :func:`olygamer_week` preset is
calibrated against the paper's published aggregates (Tables I–III and the
narrative of Sections II–III):

* 50 ms server tick, 22 player slots, 30 min map rotation;
* mean session ≈ 15 min, ≈ 24 k attempts / ≈ 16 k established per week;
* inbound payloads ≈ 40 B (narrow), outbound ≈ 130 B (wide);
* per-player bidirectional wire bandwidth ≈ 40 kbps (the 56k-modem clamp);
* three brief network outages during the week.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Tuple

from repro.net.addresses import IPv4Address

#: Canonical Half-Life engine port.
GAME_SERVER_PORT = 27015
#: Default client-side port.
GAME_CLIENT_PORT = 27005

WEEK_SECONDS = 626_477.0  # the paper's exact trace duration


@dataclass(frozen=True)
class OutageSpec:
    """One network outage: all connectivity lost for ``duration`` seconds.

    The paper observed three outages (Apr 12, 14, 17); actual outages were
    "on the order of seconds" but depressed the population "on the order
    of minutes" because many clients relied on server auto-discovery to
    reconnect.  ``reconnect_fraction`` is the share of players who noted
    the address and rejoin quickly.
    """

    start: float
    duration: float = 8.0
    reconnect_fraction: float = 0.45
    reconnect_delay_mean: float = 30.0
    rediscovery_delay_mean: float = 600.0


@dataclass(frozen=True)
class ClientLinkClass:
    """One class of client last-mile connectivity.

    ``rate_multiplier`` scales the nominal (modem-clamped) update rates;
    "l337" high-speed players crank client update rates up, exceeding the
    56 kbps barrier (paper Fig 11's right tail).
    """

    name: str
    weight: float
    rate_multiplier_mean: float
    rate_multiplier_std: float
    rate_multiplier_max: float


@dataclass(frozen=True)
class ServerProfile:
    """All parameters of the simulated game server and its player population.

    The defaults reproduce the paper's server; experiments derive scaled
    variants with :meth:`replace` (e.g. shorter horizons, different slot
    counts for the provisioning sweep).
    """

    # -- identity -----------------------------------------------------
    server_address: IPv4Address = field(
        default_factory=lambda: IPv4Address("128.223.40.15")
    )
    server_port: int = GAME_SERVER_PORT
    client_address_base: IPv4Address = field(
        default_factory=lambda: IPv4Address("24.0.0.1")
    )

    # -- engine -------------------------------------------------------
    tick_interval: float = 0.050
    #: Probability the server actually emits a snapshot packet to a given
    #: connected client on a given tick.  Below 1.0 because snapshots are
    #: suppressed for fully-idle views, during round restarts and for
    #: spectators; calibrated so mean outbound pps matches Table II.
    snapshot_send_probability: float = 0.89
    max_players: int = 22

    # -- maps and rounds ------------------------------------------------
    map_duration: float = 1800.0
    #: Seconds of server-local work at each map change during which no
    #: game traffic flows (the paper's Fig 9 dips).
    map_change_downtime: float = 6.0
    round_duration_mean: float = 210.0
    round_duration_std: float = 60.0
    round_duration_min: float = 45.0
    #: Relative amplitude of round-phase intensity modulation of outbound
    #: payload sizes (action builds up within a round).
    round_intensity_amplitude: float = 0.15

    # -- population -----------------------------------------------------
    #: Poisson connection-attempt rate (per second).  24 004 attempts over
    #: 626 477 s ≈ 0.0383/s.
    attempt_rate: float = 0.0383
    #: Relative amplitude of the mild diurnal modulation of attempts.
    diurnal_amplitude: float = 0.35
    #: Phase offset (radians) of the diurnal modulation.  Zero reproduces
    #: the paper's server; fleet profiles shift it to model facilities
    #: whose servers draw players from different time zones.
    diurnal_phase: float = 0.0
    #: Probability a given attempt comes from a never-seen client
    #: (8 207 unique / 24 004 attempts ≈ 0.342).
    new_client_probability: float = 0.342
    session_duration_mean: float = 890.0
    session_duration_cv: float = 1.1
    session_duration_min: float = 5.0

    # -- traffic shape ----------------------------------------------------
    #: Mean client->server update interval at multiplier 1.0 (seconds).
    client_update_interval: float = 0.0485
    #: Per-packet jitter (std dev, seconds) of client update spacing —
    #: clients arrive over diverse network paths, so inbound load is not
    #: synchronised to the tick.
    client_update_jitter: float = 0.012
    inbound_payload_mean: float = 39.7
    inbound_payload_std: float = 5.5
    inbound_payload_min: float = 24.0
    inbound_payload_max: float = 72.0
    outbound_payload_mean: float = 129.5
    outbound_payload_std: float = 62.0
    outbound_payload_min: float = 28.0
    outbound_payload_max: float = 420.0

    # -- link classes (Fig 11) -------------------------------------------
    link_classes: Tuple[ClientLinkClass, ...] = (
        ClientLinkClass("modem", 0.90, 1.00, 0.10, 1.25),
        ClientLinkClass("broadband", 0.07, 1.15, 0.15, 1.60),
        ClientLinkClass("l337", 0.03, 2.10, 0.45, 3.20),
    )

    # -- downloads ---------------------------------------------------------
    #: Probability a joining client needs logo/decal sync traffic.
    download_probability: float = 0.25
    #: Server-side rate limit for map/logo downloads (bytes/second).
    download_rate_limit: float = 20_000.0
    download_size_mean: float = 12_000.0
    download_size_cv: float = 0.8
    download_chunk_payload: int = 480

    # -- outages -------------------------------------------------------------
    outages: Tuple[OutageSpec, ...] = (
        OutageSpec(start=1.20 * 86400.0),
        OutageSpec(start=3.35 * 86400.0),
        OutageSpec(start=6.10 * 86400.0),
    )

    # -- horizon ---------------------------------------------------------------
    duration: float = WEEK_SECONDS

    def __post_init__(self) -> None:
        if self.tick_interval <= 0:
            raise ValueError(f"tick_interval must be positive: {self.tick_interval!r}")
        if self.max_players < 1:
            raise ValueError(f"max_players must be >= 1: {self.max_players!r}")
        if not 0.0 <= self.snapshot_send_probability <= 1.0:
            raise ValueError("snapshot_send_probability must lie in [0, 1]")
        if not 0.0 <= self.new_client_probability <= 1.0:
            raise ValueError("new_client_probability must lie in [0, 1]")
        if self.map_change_downtime >= self.map_duration:
            raise ValueError("map_change_downtime must be shorter than map_duration")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration!r}")
        total_weight = sum(c.weight for c in self.link_classes)
        if not self.link_classes or total_weight <= 0:
            raise ValueError("link_classes must have positive total weight")
        if self.inbound_payload_min >= self.inbound_payload_max:
            raise ValueError("inbound payload bounds are inverted")
        if self.outbound_payload_min >= self.outbound_payload_max:
            raise ValueError("outbound payload bounds are inverted")

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def ticks_per_second(self) -> float:
        """Server snapshot opportunities per second (1 / tick)."""
        return 1.0 / self.tick_interval

    @property
    def nominal_client_pps_in(self) -> float:
        """Updates per second from one multiplier-1.0 client."""
        return 1.0 / self.client_update_interval

    @property
    def nominal_client_pps_out(self) -> float:
        """Snapshots per second towards one connected client."""
        return self.snapshot_send_probability * self.ticks_per_second

    def nominal_client_bandwidth_bps(self, overhead_bytes: int) -> float:
        """Predicted bidirectional wire bandwidth of one nominal client.

        This is the quantity the paper pins at ≈ 40 kbps — the saturated
        56k-modem last-mile link.
        """
        bytes_in = self.nominal_client_pps_in * (self.inbound_payload_mean + overhead_bytes)
        bytes_out = self.nominal_client_pps_out * (
            self.outbound_payload_mean + overhead_bytes
        )
        return 8.0 * (bytes_in + bytes_out)

    def replace(self, **changes) -> "ServerProfile":
        """A copy of the profile with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def scaled(self, duration: float, keep_outages: bool = False) -> "ServerProfile":
        """A copy with a shorter horizon (outages dropped unless kept in range)."""
        outages = (
            tuple(o for o in self.outages if o.start + o.duration < duration)
            if keep_outages
            else ()
        )
        return self.replace(duration=float(duration), outages=outages)


def olygamer_week() -> ServerProfile:
    """The paper's server: full-week horizon, calibrated defaults."""
    return ServerProfile()
