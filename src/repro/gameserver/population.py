"""Session-level simulation of the player population.

Runs the arrival/admission/departure process on the discrete-event
engine: Poisson connection attempts with mild diurnal modulation, the
finite slot table, lognormal session durations, returning-client
identity, map rotations, and network outages with the paper's
two-speed reconnection behaviour (address-savvy players rejoin in
seconds–minutes; auto-discovery users take much longer).

The output :class:`PopulationResult` is everything the higher fidelity
levels need: the full :class:`SessionTable` (who was connected when, at
what rate multiplier), attempt outcomes for Table I, and map-change/outage
timelines for the traffic dips in Figs 5 and 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.gameserver.admission import ClientDirectory, SlotTable
from repro.gameserver.config import OutageSpec, ServerProfile
from repro.sim.engine import EventScheduler
from repro.sim.random import RandomStreams, drawn_in_blocks, lognormal_params


class SessionRecord(NamedTuple):
    """One established player session: a row of a :class:`SessionTable`.

    ``rate_multiplier`` scales the client's update rates (the Fig 11
    heterogeneity); ``link_class`` names the last-mile class it was drawn
    from.  ``end`` is the disconnect time (truncated by outages or the
    end of the horizon).
    """

    session_id: int
    client_id: int
    start: float
    end: float
    rate_multiplier: float
    link_class: str
    wants_download: bool

    @property
    def duration(self) -> float:
        """Connected seconds."""
        return self.end - self.start


#: Column name -> dtype of a :class:`SessionTable` (``link_class`` holds
#: codes into ``link_class_names``, never strings: an object array has no
#: content-addressable bytes).
_COLUMN_DTYPES = {
    "session_id": np.dtype(np.int64),
    "client_id": np.dtype(np.int64),
    "start": np.dtype(np.float64),
    "end": np.dtype(np.float64),
    "rate_multiplier": np.dtype(np.float64),
    "link_class": np.dtype(np.uint8),
    "wants_download": np.dtype(np.bool_),
}


@dataclass(frozen=True, eq=False)
class SessionTable:
    """Established sessions as parallel columns, one row per session.

    The one representation of a session list from the engines that admit
    sessions, through the per-server traffic tasks, to the shard cache's
    content key (which hashes each column's bytes).  Iterating yields
    :class:`SessionRecord` row views; vectorised consumers read the
    columns.  Equality is column-wise and exact.
    """

    session_id: np.ndarray
    client_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    rate_multiplier: np.ndarray
    link_class: np.ndarray
    wants_download: np.ndarray
    link_class_names: Tuple[str, ...]

    def __post_init__(self) -> None:
        size = None
        for name, dtype in _COLUMN_DTYPES.items():
            column = getattr(self, name)
            if not isinstance(column, np.ndarray) or column.dtype != dtype:
                raise ValueError(f"column {name!r} must be a {dtype} ndarray")
            if column.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            if size is None:
                size = column.size
            elif column.size != size:
                raise ValueError(
                    f"column {name!r} has {column.size} rows, expected {size}"
                )
        if not isinstance(self.link_class_names, tuple) or not all(
            isinstance(n, str) for n in self.link_class_names
        ):
            raise ValueError("link_class_names must be a tuple of str")
        if np.any(self.end < self.start):
            raise ValueError("a session ends before it starts")
        if size and int(self.link_class.max()) >= len(self.link_class_names):
            raise ValueError("link_class code outside link_class_names")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tuples(
        cls, rows: Sequence[tuple], link_class_names: Tuple[str, ...]
    ) -> "SessionTable":
        """A table of ``rows`` in order, each a tuple of the column values.

        ``link_class`` is a code into ``link_class_names``.
        :class:`PopulationSimulator` appends one tuple per finished
        session and builds its table once, here.
        """
        columns = zip(*rows) if rows else [()] * len(_COLUMN_DTYPES)
        return cls(
            **{
                name: np.asarray(column, dtype=dtype)
                for (name, dtype), column in zip(_COLUMN_DTYPES.items(), columns)
            },
            link_class_names=tuple(link_class_names),
        )

    def take(self, index: np.ndarray) -> "SessionTable":
        """The rows at ``index`` (integer positions or a boolean mask)."""
        return SessionTable(
            **{name: getattr(self, name)[index] for name in _COLUMN_DTYPES},
            link_class_names=self.link_class_names,
        )

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def duration(self) -> np.ndarray:
        """Connected seconds per session."""
        return self.end - self.start

    def __len__(self) -> int:
        return int(self.session_id.size)

    def __iter__(self) -> Iterator[SessionRecord]:
        names = self.link_class_names
        return map(
            SessionRecord._make,
            zip(
                self.session_id.tolist(),
                self.client_id.tolist(),
                self.start.tolist(),
                self.end.tolist(),
                self.rate_multiplier.tolist(),
                [names[code] for code in self.link_class.tolist()],
                self.wants_download.tolist(),
            ),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SessionTable):
            return NotImplemented
        return self.link_class_names == other.link_class_names and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _COLUMN_DTYPES
        )


@dataclass(frozen=True)
class AttemptRecord:
    """One connection attempt and its outcome."""

    time: float
    client_id: int
    accepted: bool


@dataclass
class PopulationResult:
    """Everything the session-level simulation produced."""

    profile: ServerProfile
    sessions: SessionTable
    attempts: List[AttemptRecord]
    map_change_times: List[float]
    outages: Tuple[OutageSpec, ...]
    unique_attempting: int
    unique_establishing: int

    @classmethod
    def from_sessions(
        cls, profile: ServerProfile, sessions: SessionTable
    ) -> "PopulationResult":
        """The population of a server whose sessions were assigned to it.

        Stands in for :func:`simulate_population` when the session list
        comes from the facility matchmaker instead of the server's own
        arrival process.  Map-change and outage gaps still follow the
        server profile (rotation is a server-side affair), and the
        attempt log records the admissions — refusals happen at the
        matchmaker, not the slot table, in this mode.
        """
        ordered = sessions.take(np.lexsort((sessions.session_id, sessions.start)))
        n_clients = int(np.unique(ordered.client_id).size)
        map_changes = np.arange(
            profile.map_duration, profile.duration, profile.map_duration
        )
        return cls(
            profile=profile,
            sessions=ordered,
            attempts=[
                AttemptRecord(start, client_id, accepted=True)
                for start, client_id in zip(
                    ordered.start.tolist(), ordered.client_id.tolist()
                )
            ],
            map_change_times=[float(t) for t in map_changes],
            outages=tuple(o for o in profile.outages if o.start < profile.duration),
            unique_attempting=n_clients,
            unique_establishing=n_clients,
        )

    @property
    def established_count(self) -> int:
        """Sessions actually admitted (Table I 'Established Connections')."""
        return len(self.sessions)

    @property
    def attempted_count(self) -> int:
        """All connection attempts (Table I 'Attempted Connections')."""
        return len(self.attempts)

    @property
    def maps_played(self) -> int:
        """Number of maps the horizon covered."""
        return len(self.map_change_times) + 1

    def mean_session_duration(self) -> float:
        """Average connected time per established session (seconds)."""
        if not self.sessions:
            return 0.0
        # Python's left-to-right sum, as over the records
        return sum(self.sessions.duration.tolist()) / len(self.sessions)

    def mean_sessions_per_client(self) -> float:
        """Established sessions per unique establishing client."""
        if not self.unique_establishing:
            return 0.0
        return self.established_count / self.unique_establishing

    # ------------------------------------------------------------------
    # derived series
    # ------------------------------------------------------------------
    def players_at(self, times: np.ndarray) -> np.ndarray:
        """Instantaneous player count at each query time (vectorised).

        Computed by sweeping session start/end events with searchsorted.
        """
        times = np.asarray(times, dtype=float)
        if not self.sessions:
            return np.zeros(times.shape, dtype=np.int64)
        starts = np.sort(self.sessions.start)
        ends = np.sort(self.sessions.end)
        started = np.searchsorted(starts, times, side="right")
        ended = np.searchsorted(ends, times, side="right")
        return (started - ended).astype(np.int64)

    def distinct_players_per_interval(self, bin_size: float) -> np.ndarray:
        """Distinct players seen in each interval (the paper's Fig 3 metric).

        "The number of players sometimes exceeds the maximum number of
        slots of 22 as multiple clients can come and go during an
        interval" — so this counts sessions overlapping each bin, not
        instantaneous occupancy.
        """
        if bin_size <= 0:
            raise ValueError(f"bin_size must be positive, got {bin_size!r}")
        nbins = max(1, int(math.ceil(self.profile.duration / bin_size)))
        # +1 at each session's first bin, -1 past its last: integer
        # counts, so the difference-array sweep is exact
        first = np.maximum(0, self.sessions.start // bin_size).astype(np.int64)
        last = np.minimum(nbins - 1, self.sessions.end // bin_size).astype(np.int64)
        kept = last >= first
        diff = np.bincount(first[kept], minlength=nbins + 1) - np.bincount(
            last[kept] + 1, minlength=nbins + 1
        )
        return np.cumsum(diff[:nbins]).astype(np.int64)

    def active_sessions(self, start: float, end: float) -> SessionTable:
        """Sessions overlapping ``[start, end)``, in start order."""
        sessions = self.sessions
        return sessions.take((sessions.start < end) & (sessions.end > start))

    def gap_intervals(self) -> List[Tuple[float, float]]:
        """Intervals with no game traffic: map-change downtime and outages."""
        gaps = [
            (t, t + self.profile.map_change_downtime) for t in self.map_change_times
        ]
        gaps.extend((o.start, o.start + o.duration) for o in self.outages)
        gaps.sort()
        return gaps


class PopulationSimulator:
    """Discrete-event simulation of arrivals, admission and departures.

    Parameters
    ----------
    profile:
        The calibrated server/workload profile.
    seed:
        Master seed for all random streams.
    """

    def __init__(self, profile: ServerProfile, seed: int = 0) -> None:
        self.profile = profile
        self.streams = RandomStreams(seed)
        self._scheduler = EventScheduler()
        self._slots = SlotTable(capacity=profile.max_players)
        self._directory = ClientDirectory()
        # one column-ordered tuple per finished session (see SessionTable)
        self._sessions: List[tuple] = []
        self._attempts: List[AttemptRecord] = []
        # session_id -> (client_id, start, multiplier, link class code,
        # download, departure event)
        self._active: Dict[int, dict] = {}
        self._connected_clients: Set[int] = set()
        self._next_session_id = 0
        self._client_traits: Dict[int, Tuple[float, int]] = {}
        self._outage_until = -1.0
        # per-call invariants of the event loop, computed once; the link
        # class CDF is the one ``Generator.choice(n, p=weights/sum)``
        # builds, so searching it with one ``random()`` draw picks the same
        # class from the same stream position
        weights = np.asarray([c.weight for c in profile.link_classes], dtype=float)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        self._link_cdf = cdf
        streams = self.streams
        self._identity_rng = streams.get("identity")
        self._links_rng = streams.get("links")
        self._outages_rng = streams.get("outages")
        # per-admission draws, taken in blocks: nothing else reads these
        # two streams, and a block holds the values that as many single
        # draws would return
        self._session_durations = drawn_in_blocks(
            partial(
                streams.get("sessions").lognormal,
                *lognormal_params(
                    profile.session_duration_mean, profile.session_duration_cv
                ),
            )
        )
        self._download_draws = drawn_in_blocks(streams.get("downloads").random)
        self._attempt_times: Iterator[float] = iter(())

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self) -> PopulationResult:
        """Run the session process over the profile's horizon."""
        profile = self.profile
        self._attempt_times = iter(self._draw_attempt_times())
        self._schedule_next_attempt()
        for outage in profile.outages:
            if outage.start < profile.duration:
                self._scheduler.call_at(
                    outage.start, lambda o=outage: self._begin_outage(o), priority=-1
                )
        self._scheduler.run_until(profile.duration)
        self._close_open_sessions(profile.duration)
        map_changes = np.arange(
            profile.map_duration, profile.duration, profile.map_duration
        )
        sessions = SessionTable.from_tuples(
            self._sessions, tuple(c.name for c in profile.link_classes)
        )
        return PopulationResult(
            profile=profile,
            sessions=sessions.take(np.argsort(sessions.start, kind="stable")),
            attempts=self._attempts,
            map_change_times=[float(t) for t in map_changes],
            outages=tuple(o for o in profile.outages if o.start < profile.duration),
            unique_attempting=self._directory.unique_attempting,
            unique_establishing=self._directory.unique_establishing,
        )

    # ------------------------------------------------------------------
    # arrival process
    # ------------------------------------------------------------------
    def _draw_attempt_times(self) -> List[float]:
        """Every attempt time of the horizon, ascending.

        A thinning sampler for the non-homogeneous Poisson attempt
        stream: candidates at the peak rate, each kept with probability
        λ(t)/λ_max, where λ(t) is the attempt rate with its diurnal
        modulation.  It is the only reader of the ``arrivals`` stream,
        so the whole stream is drawn here, before the event loop runs.
        """
        profile = self.profile
        rng = self.streams.get("arrivals")
        exponential, random, sin = rng.exponential, rng.random, math.sin
        rate, amplitude = profile.attempt_rate, profile.diurnal_amplitude
        phase, duration = profile.diurnal_phase, profile.duration
        lam_max = rate * (1.0 + amplitude)
        mean_gap = 1.0 / lam_max
        two_pi = 2.0 * math.pi
        times: List[float] = []
        t = 0.0
        while True:
            t += exponential(mean_gap)
            if t >= duration:
                return times
            angle = two_pi * (t / 86400.0) + phase
            if random() <= rate * (1.0 + amplitude * sin(angle - 0.7)) / lam_max:
                times.append(t)

    def _schedule_next_attempt(self) -> None:
        """Put the next drawn attempt, if any is left, on the scheduler."""
        t = next(self._attempt_times, None)
        if t is not None:
            self._scheduler.call_at(t, self._on_attempt)

    def _on_attempt(self) -> None:
        self._handle_attempt(forced_client=None)
        self._schedule_next_attempt()

    def _pick_client(self) -> int:
        """A brand-new or returning client per the identity model."""
        rng = self._identity_rng
        if rng.random() < self.profile.new_client_probability:
            return self._directory.new_client()
        returning = self._directory.sample_returning(
            rng, exclude=self._connected_clients
        )
        if returning is None:
            return self._directory.new_client()
        return returning

    def _client_rate_traits(self, client_id: int) -> Tuple[float, int]:
        """Stable (rate multiplier, link class code) per client.

        Drawn once per client so a returning player keeps their link
        class — what makes Fig 11's per-flow histogram bimodal rather
        than smeared.
        """
        traits = self._client_traits.get(client_id)
        if traits is None:
            rng = self._links_rng
            code = int(self._link_cdf.searchsorted(rng.random(), side="right"))
            chosen = self.profile.link_classes[code]
            multiplier = float(
                min(
                    max(
                        rng.normal(
                            chosen.rate_multiplier_mean, chosen.rate_multiplier_std
                        ),
                        0.55,
                    ),
                    chosen.rate_multiplier_max,
                )
            )
            traits = self._client_traits[client_id] = (multiplier, code)
        return traits

    def _handle_attempt(self, forced_client: Optional[int]) -> None:
        now = self._scheduler.now
        if now < self._outage_until:
            return  # attempts during an outage never reach the server
        client_id = self._pick_client() if forced_client is None else forced_client
        self._directory.record_attempt(client_id)
        if client_id in self._connected_clients:
            # the client is already playing (e.g. a duplicate quick retry)
            self._attempts.append(AttemptRecord(now, client_id, accepted=False))
            self._slots.refused_total += 1
            return
        session_id = self._next_session_id
        accepted = self._slots.try_admit(session_id)
        self._attempts.append(AttemptRecord(now, client_id, accepted=accepted))
        if not accepted:
            return
        self._next_session_id += 1
        self._directory.record_establishment(client_id)
        self._connected_clients.add(client_id)
        multiplier, link_class = self._client_rate_traits(client_id)
        duration = max(self.profile.session_duration_min, next(self._session_durations))
        wants_download = next(self._download_draws) < self.profile.download_probability
        end_time = min(now + duration, self.profile.duration)
        departure = self._scheduler.schedule(
            end_time, lambda sid=session_id: self._on_departure(sid)
        )
        self._active[session_id] = {
            "client_id": client_id,
            "start": now,
            "multiplier": multiplier,
            "link_class": link_class,
            "download": wants_download,
            "departure": departure,
        }

    # ------------------------------------------------------------------
    # departures and outages
    # ------------------------------------------------------------------
    def _finish_session(self, session_id: int, end_time: float) -> None:
        state = self._active.pop(session_id)
        self._slots.release(session_id)
        self._connected_clients.discard(state["client_id"])
        self._sessions.append(
            (
                session_id,
                state["client_id"],
                state["start"],
                end_time,
                state["multiplier"],
                state["link_class"],
                state["download"],
            )
        )

    def _on_departure(self, session_id: int) -> None:
        if session_id in self._active:
            self._finish_session(session_id, self._scheduler.now)

    def _begin_outage(self, outage: OutageSpec) -> None:
        """Sever all sessions; schedule the two-speed reconnection wave."""
        now = self._scheduler.now
        self._outage_until = now + outage.duration
        rng = self._outages_rng
        victims = list(self._active.keys())
        for session_id in victims:
            state = self._active[session_id]
            state["departure"].cancel()
            client_id = state["client_id"]
            self._finish_session(session_id, now)
            if rng.random() < outage.reconnect_fraction:
                delay = outage.duration + float(
                    rng.exponential(outage.reconnect_delay_mean)
                )
            else:
                delay = outage.duration + float(
                    rng.exponential(outage.rediscovery_delay_mean)
                )
            when = now + delay
            if when < self.profile.duration:
                self._scheduler.call_at(
                    when,
                    lambda cid=client_id: self._handle_attempt(forced_client=cid),
                )

    def _close_open_sessions(self, end_time: float) -> None:
        for session_id in list(self._active.keys()):
            self._finish_session(session_id, end_time)


def simulate_population(profile: ServerProfile, seed: int = 0) -> PopulationResult:
    """Convenience wrapper: run a :class:`PopulationSimulator` once."""
    return PopulationSimulator(profile, seed=seed).run()
