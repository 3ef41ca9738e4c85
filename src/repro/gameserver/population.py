"""Session-level simulation of the player population.

Runs the arrival/admission/departure process on the discrete-event
engine: Poisson connection attempts with mild diurnal modulation, the
finite slot table, lognormal session durations, returning-client
identity, map rotations, and network outages with the paper's
two-speed reconnection behaviour (address-savvy players rejoin in
seconds–minutes; auto-discovery users take much longer).

The output :class:`PopulationResult` is everything the higher fidelity
levels need: the full session list (who was connected when, at what rate
multiplier), attempt outcomes for Table I, and map-change/outage
timelines for the traffic dips in Figs 5 and 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.gameserver.admission import ClientDirectory, SlotTable
from repro.gameserver.config import OutageSpec, ServerProfile
from repro.sim.engine import EventScheduler
from repro.sim.random import RandomStreams, lognormal_params


@dataclass(frozen=True)
class SessionRecord:
    """One established player session.

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

    def overlaps(self, start: float, end: float) -> bool:
        """True if the session is active anywhere in ``[start, end)``."""
        return self.start < end and self.end > start


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
    sessions: List[SessionRecord]
    attempts: List[AttemptRecord]
    map_change_times: List[float]
    outages: Tuple[OutageSpec, ...]
    unique_attempting: int
    unique_establishing: int

    @property
    def established_count(self) -> int:
        """Sessions actually admitted (Table I 'Established Connections')."""
        return len(self.sessions)

    @property
    def attempted_count(self) -> int:
        """All connection attempts (Table I 'Attempted Connections')."""
        return len(self.attempts)

    @property
    def refused_count(self) -> int:
        """Attempts refused for lack of slots."""
        return sum(1 for a in self.attempts if not a.accepted)

    @property
    def maps_played(self) -> int:
        """Number of maps the horizon covered."""
        return len(self.map_change_times) + 1

    def mean_session_duration(self) -> float:
        """Average connected time per established session (seconds)."""
        if not self.sessions:
            return 0.0
        return sum(s.duration for s in self.sessions) / len(self.sessions)

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
        starts = np.sort([s.start for s in self.sessions])
        ends = np.sort([s.end for s in self.sessions])
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
        counts = np.zeros(nbins, dtype=np.int64)
        for session in self.sessions:
            first = max(0, int(session.start // bin_size))
            last = min(nbins - 1, int(session.end // bin_size))
            if last >= first:
                counts[first : last + 1] += 1
        return counts

    def active_sessions(self, start: float, end: float) -> List[SessionRecord]:
        """Sessions overlapping ``[start, end)``, in start order."""
        return [s for s in self.sessions if s.overlaps(start, end)]

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
        self._sessions: List[SessionRecord] = []
        self._attempts: List[AttemptRecord] = []
        # session_id -> (client_id, start, multiplier, link class, download, departure event)
        self._active: Dict[int, dict] = {}
        self._connected_clients: Set[int] = set()
        self._next_session_id = 0
        self._client_traits: Dict[int, Tuple[float, str]] = {}
        self._outage_until = -1.0
        # per-call invariants of the event loop, computed once; the link
        # class CDF is the one ``Generator.choice(n, p=weights/sum)``
        # builds, so searching it with one ``random()`` draw picks the same
        # class from the same stream position
        weights = np.asarray([c.weight for c in profile.link_classes], dtype=float)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        self._link_cdf = cdf
        self._session_lognormal = lognormal_params(
            profile.session_duration_mean, profile.session_duration_cv
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self) -> PopulationResult:
        """Run the session process over the profile's horizon."""
        profile = self.profile
        self._schedule_next_attempt()
        for outage in profile.outages:
            if outage.start < profile.duration:
                self._scheduler.schedule(
                    outage.start, lambda o=outage: self._begin_outage(o), priority=-1
                )
        self._scheduler.run_until(profile.duration)
        self._close_open_sessions(profile.duration)
        map_changes = np.arange(
            profile.map_duration, profile.duration, profile.map_duration
        )
        return PopulationResult(
            profile=profile,
            sessions=sorted(self._sessions, key=lambda s: s.start),
            attempts=self._attempts,
            map_change_times=[float(t) for t in map_changes],
            outages=tuple(o for o in profile.outages if o.start < profile.duration),
            unique_attempting=self._directory.unique_attempting,
            unique_establishing=self._directory.unique_establishing,
        )

    # ------------------------------------------------------------------
    # arrival process
    # ------------------------------------------------------------------
    def _attempt_rate_at(self, t: float) -> float:
        """Diurnally modulated attempt rate λ(t) (per second)."""
        profile = self.profile
        phase = 2.0 * math.pi * (t / 86400.0) + profile.diurnal_phase
        return profile.attempt_rate * (
            1.0 + profile.diurnal_amplitude * math.sin(phase - 0.7)
        )

    def _max_attempt_rate(self) -> float:
        return self.profile.attempt_rate * (1.0 + self.profile.diurnal_amplitude)

    def _schedule_next_attempt(self) -> None:
        """Thinning sampler for the non-homogeneous Poisson attempt stream."""
        rng = self.streams.get("arrivals")
        exponential, random = rng.exponential, rng.random
        rate_at = self._attempt_rate_at
        lam_max = self._max_attempt_rate()
        mean_gap = 1.0 / lam_max
        duration = self.profile.duration
        t = self._scheduler.now
        while True:
            t += exponential(mean_gap)
            if t >= duration:
                return
            if random() <= rate_at(t) / lam_max:
                break
        self._scheduler.schedule(t, self._on_attempt)

    def _on_attempt(self) -> None:
        self._handle_attempt(forced_client=None)
        self._schedule_next_attempt()

    def _pick_client(self) -> int:
        """A brand-new or returning client per the identity model."""
        rng = self.streams.get("identity")
        if rng.random() < self.profile.new_client_probability:
            return self._directory.new_client()
        returning = self._directory.sample_returning(
            rng, exclude=self._connected_clients
        )
        if returning is None:
            return self._directory.new_client()
        return returning

    def _client_rate_traits(self, client_id: int) -> Tuple[float, str]:
        """Stable (rate multiplier, link class) per client.

        Drawn once per client so a returning player keeps their link
        class — what makes Fig 11's per-flow histogram bimodal rather
        than smeared.
        """
        traits = self._client_traits.get(client_id)
        if traits is None:
            rng = self.streams.get("links")
            chosen = self.profile.link_classes[
                int(self._link_cdf.searchsorted(rng.random(), side="right"))
            ]
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
            traits = self._client_traits[client_id] = (multiplier, chosen.name)
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
        duration = max(
            self.profile.session_duration_min,
            self.streams.get("sessions").lognormal(*self._session_lognormal),
        )
        wants_download = (
            self.streams.get("downloads").random() < self.profile.download_probability
        )
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
            SessionRecord(
                session_id=session_id,
                client_id=state["client_id"],
                start=state["start"],
                end=end_time,
                rate_multiplier=state["multiplier"],
                link_class=state["link_class"],
                wants_download=state["download"],
            )
        )

    def _on_departure(self, session_id: int) -> None:
        if session_id in self._active:
            self._finish_session(session_id, self._scheduler.now)

    def _begin_outage(self, outage: OutageSpec) -> None:
        """Sever all sessions; schedule the two-speed reconnection wave."""
        now = self._scheduler.now
        self._outage_until = now + outage.duration
        rng = self.streams.get("outages")
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
                self._scheduler.schedule(
                    when,
                    lambda cid=client_id: self._handle_attempt(forced_client=cid),
                )

    def _close_open_sessions(self, end_time: float) -> None:
        for session_id in list(self._active.keys()):
            self._finish_session(session_id, end_time)


def simulate_population(profile: ServerProfile, seed: int = 0) -> PopulationResult:
    """Convenience wrapper: run a :class:`PopulationSimulator` once."""
    return PopulationSimulator(profile, seed=seed).run()
